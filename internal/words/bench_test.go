package words_test

import (
	"strings"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/words"
)

// propagateSink keeps BenchmarkPropagateAll's results live.
var propagateSink []words.Word

// BenchmarkPropagateAll measures word propagation summed over the
// gate-level labeled articles and over their LUT-mapped twins (the designs
// of the gate and lut benchmark workloads), each from the seeds the words
// stage receives: the module-port words of an analysis without
// propagation, expanded for the stage's three rounds.
func BenchmarkPropagateAll(b *testing.B) {
	for _, lut := range []bool{false, true} {
		name := "gate"
		if lut {
			name = "lut"
		}
		type design struct {
			nl    *netlist.Netlist
			seeds []words.Word
		}
		var designs []design
		for _, a := range gen.LabeledArticleNames() {
			if strings.HasSuffix(a, "-lut") != lut {
				continue
			}
			nl, _, err := gen.LabeledArticle(a)
			if err != nil {
				b.Fatal(err)
			}
			seeds := core.Analyze(nl, core.Options{Workers: 1, SkipWordProp: true}).Words
			designs = append(designs, design{nl, seeds})
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, d := range designs {
					propagateSink, _ = words.PropagateAll(d.nl, d.seeds, 3, words.Options{})
				}
			}
		})
	}
}
