package aggregate

import (
	"strings"
	"testing"

	"netlistre/internal/bitslice"
	"netlistre/internal/gen"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/simplify"
	"netlistre/internal/support"
)

// aggregateSink keeps BenchmarkAggregate's results live.
var aggregateSink []*module.Module

// aggregateInput is what the aggregate and fuse stages are given for one
// design: its bitslice matches and common-support's decoders.
type aggregateInput struct {
	res      *bitslice.Result
	decoders []*module.Module
}

func newAggregateInput(nl *netlist.Netlist, workers int) aggregateInput {
	in := aggregateInput{res: bitslice.Find(nl, bitslice.Options{Workers: workers})}
	for _, m := range support.Analyze(nl, support.Options{Workers: workers}) {
		if m.Type == module.Decoder {
			in.decoders = append(in.decoders, m)
		}
	}
	return in
}

// aggregateOnce runs the aggregate stage (CommonSignal, PropagatedSignal)
// and the fuse stage (Fuse over the mux modules plus the decoders), as
// the pipeline does.
func aggregateOnce(in aggregateInput) {
	common := CommonSignal(in.res)
	aggregateSink = PropagatedSignal(in.res)
	var fusable []*module.Module
	for _, m := range common {
		if m.Type == module.Mux {
			fusable = append(fusable, m)
		}
	}
	aggregateSink = Fuse(append(fusable, in.decoders...))
}

// BenchmarkAggregate measures the aggregate and fuse stages on bitslice
// results computed outside the timer: summed over the gate-level labeled
// articles and over their LUT-mapped twins (the designs of the gate and
// lut benchmark workloads) with bitslice at one worker, and on simplified
// BigSoC with noise seed 1 (the bigsoc workload's first input) with
// bitslice at two workers.
func BenchmarkAggregate(b *testing.B) {
	for _, lut := range []bool{false, true} {
		name := "gate"
		if lut {
			name = "lut"
		}
		var inputs []aggregateInput
		for _, a := range gen.LabeledArticleNames() {
			if strings.HasSuffix(a, "-lut") != lut {
				continue
			}
			nl, _, err := gen.LabeledArticle(a)
			if err != nil {
				b.Fatal(err)
			}
			inputs = append(inputs, newAggregateInput(nl, 1))
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, in := range inputs {
					aggregateOnce(in)
				}
			}
		})
	}
	b.Run("bigsoc", func(b *testing.B) {
		nl := simplify.Run(gen.SoC("bigsoc", gen.BigSoCCoreNames(), 1, 0.22)).Netlist
		in := newAggregateInput(nl, 2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			aggregateOnce(in)
		}
	})
}
