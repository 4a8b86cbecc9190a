package modmatch_test

import (
	"context"
	"strings"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/modmatch"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/simplify"
	"netlistre/internal/words"
)

// matchSink and candidateSink keep the benchmarks' results live.
var (
	matchSink     []*module.Module
	candidateSink []modmatch.Candidate
)

// design is a netlist with the words core's analysis hands the modmatch
// stage for it.
type design struct {
	nl *netlist.Netlist
	ws []words.Word
}

// benchDesigns returns the designs of one benchmark workload: "gate" and
// "lut" are the gate-level labeled articles and their LUT-mapped twins,
// "bigsoc" the simplified seven-core SoC.
func benchDesigns(tb testing.TB, set string) []design {
	tb.Helper()
	if set == "bigsoc" {
		nl := simplify.Run(gen.BigSoC()).Netlist
		return []design{{nl, core.Analyze(nl, core.Options{Workers: 1, SkipModMatch: true}).Words}}
	}
	var ds []design
	for _, name := range gen.LabeledArticleNames() {
		if strings.HasSuffix(name, "-lut") != (set == "lut") {
			continue
		}
		nl, ws := articleWords(tb, name)
		ds = append(ds, design{nl, ws})
	}
	return ds
}

// BenchmarkMatch measures module matching, one worker, summed over the
// designs of each benchmark workload, each with the words core's analysis
// hands the stage.
func BenchmarkMatch(b *testing.B) {
	for _, set := range []string{"gate", "lut", "bigsoc"} {
		b.Run(set, func(b *testing.B) {
			ds := benchDesigns(b, set)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, d := range ds {
					matchSink = modmatch.Match(context.Background(), d.nl, d.ws, modmatch.Options{Workers: 1})
				}
			}
		})
	}
}

// BenchmarkCandidates measures candidate carving alone on BigSoC, the
// design with the most words.
func BenchmarkCandidates(b *testing.B) {
	b.Run("bigsoc", func(b *testing.B) {
		d := benchDesigns(b, "bigsoc")[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			candidateSink = modmatch.Candidates(d.nl, d.ws, modmatch.Options{})
		}
	})
}
