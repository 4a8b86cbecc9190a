package modmatch_test

import (
	"context"
	"strings"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/modmatch"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/words"
)

// matchSink keeps BenchmarkMatch's results live.
var matchSink []*module.Module

// BenchmarkMatch measures module matching, one worker, summed over the
// gate-level labeled articles (the designs of the gate benchmark
// workload), each with the words core's analysis hands the stage.
func BenchmarkMatch(b *testing.B) {
	type design struct {
		nl *netlist.Netlist
		ws []words.Word
	}
	var designs []design
	for _, name := range gen.LabeledArticleNames() {
		if strings.HasSuffix(name, "-lut") {
			continue
		}
		nl, ws := articleWords(b, name)
		designs = append(designs, design{nl, ws})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range designs {
			matchSink = modmatch.Match(context.Background(), d.nl, d.ws, modmatch.Options{Workers: 1})
		}
	}
}
