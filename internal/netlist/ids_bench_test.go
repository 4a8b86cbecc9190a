package netlist_test

import (
	"strings"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/netlist"
)

// supportsSink keeps BenchmarkBoundedSupports's result live.
var supportsSink *netlist.Supports

// BenchmarkBoundedSupports runs the bounded support pass at the support
// stage's bound of 10 inputs over every gate-level (gate) or LUT-mapped
// (lut) labeled article.
func BenchmarkBoundedSupports(b *testing.B) {
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
					supportsSink = nl.BoundedSupports(10)
				}
			}
		})
	}
}
