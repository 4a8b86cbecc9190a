package support

import (
	"strings"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
)

// analyzeSink keeps BenchmarkAnalyze's results live.
var analyzeSink []*module.Module

// BenchmarkAnalyze measures class grouping plus verification, one worker,
// summed over the gate-level labeled articles and over their LUT-mapped
// twins (the designs of the gate and lut benchmark workloads).
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
}
