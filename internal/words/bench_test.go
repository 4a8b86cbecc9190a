package words_test

import (
	"strings"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/simplify"
	"netlistre/internal/words"
)

// propagateSink keeps BenchmarkPropagateAll's results live.
var propagateSink []words.Word

// BenchmarkPropagateAll measures word propagation summed over the
// gate-level labeled articles and over their LUT-mapped twins (the designs
// of the gate and lut benchmark workloads) at one worker, and on
// simplified BigSoC at two workers, each from the seeds the words stage
// receives: the module-port words of an analysis without propagation,
// expanded for the stage's three rounds.
func BenchmarkPropagateAll(b *testing.B) {
	type design struct {
		nl    *netlist.Netlist
		seeds []words.Word
	}
	seeded := func(nl *netlist.Netlist) design {
		return design{nl, core.Analyze(nl, core.Options{Workers: 1, SkipWordProp: true}).Words}
	}
	for _, c := range []struct {
		name    string
		workers int
	}{{"gate", 1}, {"lut", 1}, {"bigsoc", 2}} {
		b.Run(c.name, func(b *testing.B) {
			var designs []design
			if c.name == "bigsoc" {
				designs = append(designs, seeded(simplify.Run(gen.BigSoC()).Netlist))
			}
			for _, a := range gen.LabeledArticleNames() {
				if c.name == "bigsoc" || strings.HasSuffix(a, "-lut") != (c.name == "lut") {
					continue
				}
				nl, _, err := gen.LabeledArticle(a)
				if err != nil {
					b.Fatal(err)
				}
				designs = append(designs, seeded(nl))
			}
			opt := words.Options{Workers: c.workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, d := range designs {
					propagateSink, _ = words.PropagateAll(d.nl, d.seeds, 3, opt)
				}
			}
		})
	}
}
