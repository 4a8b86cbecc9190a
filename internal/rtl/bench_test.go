package rtl

import (
	"strings"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
)

// Sinks keep the benchmarks' results live.
var (
	emitSink  *EmitResult
	checkSink *EquivResult
)

// benchDesign is one analyzed labeled article and its emission.
type benchDesign struct {
	nl  *netlist.Netlist
	rep *core.Report
	er  *EmitResult
}

// benchDesigns analyzes and emits the gate-level labeled articles (the
// designs of the gate benchmark workload) or their LUT-mapped twins (the
// lut workload).
func benchDesigns(b *testing.B, lut bool) []benchDesign {
	var designs []benchDesign
	for _, a := range gen.LabeledArticleNames() {
		if strings.HasSuffix(a, "-lut") != lut {
			continue
		}
		nl, _, err := gen.LabeledArticle(a)
		if err != nil {
			b.Fatal(err)
		}
		rep := core.Analyze(nl, core.Options{Workers: 1})
		er, err := Emit(nl, rep)
		if err != nil {
			b.Fatalf("%s: %v", a, err)
		}
		designs = append(designs, benchDesign{nl, rep, er})
	}
	return designs
}

// benchWorkloads runs body once per workload, gate then lut, summed over
// the workload's articles. Analysis and emission run outside the timer.
func benchWorkloads(b *testing.B, body func(b *testing.B, d benchDesign)) {
	for _, lut := range []bool{false, true} {
		name := "gate"
		if lut {
			name = "lut"
		}
		designs := benchDesigns(b, lut)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, d := range designs {
					body(b, d)
				}
			}
		})
	}
}

// BenchmarkEmit measures lowering an analyzed report to word-level RTL.
func BenchmarkEmit(b *testing.B) {
	benchWorkloads(b, func(b *testing.B, d benchDesign) {
		er, err := Emit(d.nl, d.rep)
		if err != nil {
			b.Fatal(err)
		}
		emitSink = er
	})
}

// BenchmarkCheck measures the decompile self-check alone: elaborating the
// emitted text and comparing it with the input.
func BenchmarkCheck(b *testing.B) {
	benchWorkloads(b, func(b *testing.B, d benchDesign) {
		eq, err := Check(d.nl, d.er)
		if err != nil {
			b.Fatal(err)
		}
		checkSink = eq
	})
}
