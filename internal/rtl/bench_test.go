package rtl

import (
	"strings"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
)

// checkSink keeps BenchmarkCheck's results live.
var checkSink *EquivResult

// BenchmarkCheck measures the decompile self-check alone, summed over the
// gate-level labeled articles (the designs of the gate benchmark
// workload). Each article is analyzed and emitted once, outside the timer.
func BenchmarkCheck(b *testing.B) {
	type emitted struct {
		nl *netlist.Netlist
		er *EmitResult
	}
	var designs []emitted
	for _, a := range gen.LabeledArticleNames() {
		if strings.HasSuffix(a, "-lut") {
			continue
		}
		nl, _, err := gen.LabeledArticle(a)
		if err != nil {
			b.Fatal(err)
		}
		er, err := Emit(nl, core.Analyze(nl, core.Options{Workers: 1}))
		if err != nil {
			b.Fatalf("%s: %v", a, err)
		}
		designs = append(designs, emitted{nl, er})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range designs {
			eq, err := Check(d.nl, d.er)
			if err != nil {
				b.Fatal(err)
			}
			checkSink = eq
		}
	}
}
