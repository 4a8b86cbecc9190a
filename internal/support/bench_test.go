package support

import (
	"strings"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/simplify"
)

// analyzeSink keeps BenchmarkAnalyze's results live.
var analyzeSink []*module.Module

// BenchmarkAnalyze measures class grouping plus verification, one worker,
// summed over the gate-level labeled articles and over their LUT-mapped
// twins (the designs of the gate and lut benchmark workloads), and at two
// workers on simplified BigSoC with noise seed 1 (the bigsoc workload's
// first input).
func BenchmarkAnalyze(b *testing.B) {
	for _, lut := range []bool{false, true} {
		name := "gate"
		if lut {
			name = "lut"
		}
		var designs []*netlist.Netlist
		for _, a := range gen.LabeledArticleNames() {
			if strings.HasSuffix(a, "-lut") != lut {
				continue
			}
			nl, _, err := gen.LabeledArticle(a)
			if err != nil {
				b.Fatal(err)
			}
			designs = append(designs, nl)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, nl := range designs {
					analyzeSink = Analyze(nl, Options{Workers: 1})
				}
			}
		})
	}
	b.Run("bigsoc", func(b *testing.B) {
		nl := simplify.Run(gen.SoC("bigsoc", gen.BigSoCCoreNames(), 1, 0.22)).Netlist
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			analyzeSink = Analyze(nl, Options{Workers: 2})
		}
	})
}
