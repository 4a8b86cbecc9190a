package netlistre

// Cut-classification microbenchmark (`make bench-match`): replays the
// exact stream of shrunk cut functions that Boolean matching sees on the
// BigSoC case study through the per-cut classification work of the old
// and new implementations of bitslice.Find, and writes the per-cut costs
// and speedups to the file named by BENCH_MATCH_OUT.
//
// The old implementation ran a permutation search (MatchAgainst) against
// every arity-matched library entry for every cut and — with unknown-class
// collection on, as core.Analyze enables whenever candidate modules are
// requested — additionally canonicalized every unmatched cut of arity >= 3
// to key its equivalence class. Nothing was memoized, so repeated cut
// functions (the common case: real designs reuse a few hundred distinct
// functions across hundreds of thousands of cuts) paid full price every
// time. The new implementation memoizes classifications per worker, and a
// memo miss resolves through the canonical index: one Canon + map probe,
// plus a single MatchAgainst on non-unique hits to pin argument order.
//
// Both sides run with unknown-class collection on, so cuts of arity >= 3
// take Index.LookupCanon, which always canonicalizes. The invariant
// prefilter that lets Index.Lookup skip Canon for tables no library entry
// can match does not apply there, so this benchmark does not measure it;
// BenchmarkFind in internal/bitslice covers the default path.
//
// The test asserts a >= 3x old-vs-new per-cut speedup. Against the
// committed testdata/bench_match_baseline.json the SPEEDUP RATIO is gated
// (>= baseline/1.5), not absolute nanoseconds, so the check is stable
// across machines. Cold (memo-miss) and warm (memo-hit) index costs are
// also reported to show where the time goes.

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"netlistre/internal/cuts"
	"netlistre/internal/truth"
)

// matchBenchResult is the BENCH_match.json schema.
type matchBenchResult struct {
	Design          string  `json:"design"`
	Cuts            int     `json:"cuts"`
	DistinctTables  int     `json:"distinct_tables"`
	SlowNsPerCut    float64 `json:"slow_ns_per_cut"`
	FastNsPerCut    float64 `json:"fast_ns_per_cut"`
	ColdNsPerCut    float64 `json:"cold_ns_per_cut"`
	WarmNsPerCut    float64 `json:"warm_ns_per_cut"`
	Speedup         float64 `json:"speedup"`
	CutsPerSecSlow  float64 `json:"cuts_per_sec_slow"`
	CutsPerSecFast  float64 `json:"cuts_per_sec_fast"`
	BaselineSpeedup float64 `json:"baseline_speedup,omitempty"`
}

// collectCutStream enumerates BigSoC's cuts and returns every shrunk,
// non-trivial cut function in node order — the exact tables bitslice.Find
// classifies.
func collectCutStream() []truth.Table {
	nl := Simplify(BigSoC()).Netlist
	sets := cuts.Enumerate(nl, cuts.Options{})
	var stream []truth.Table
	for id := 0; id < nl.Len(); id++ {
		if !nl.Kind(ID(id)).IsGate() {
			continue
		}
		for _, c := range sets[ID(id)] {
			if len(c.Leaves) == 1 && int(c.Leaves[0]) == id {
				continue
			}
			shrunk, _ := c.Table.Shrink()
			if shrunk.N == 0 {
				continue
			}
			stream = append(stream, shrunk)
		}
	}
	return stream
}

// classifySlow is the per-cut work of the original bitslice.Find with
// unknown-class collection enabled: a permutation search against every
// arity-matched library entry, plus canonicalization of unmatched cuts of
// arity >= 3 to key their equivalence class. No memoization.
func classifySlow(t truth.Table, byArity map[int][]truth.Entry) int {
	n := 0
	for _, e := range byArity[t.N] {
		if _, ok := t.MatchAgainst(e.Table); ok {
			n++
		}
	}
	if n == 0 && t.N >= 3 {
		canon, _ := t.Canon()
		if canon.String() == "" {
			panic("empty canonical key")
		}
	}
	return n
}

// classifyCold is the index fast path as bitslice.Find runs it on a memo
// miss: one LookupCanon, the MatchAgainst re-run on non-unique hits that
// keeps argument orders byte-identical, and the canonical unknown-class
// key for unmatched cuts of arity >= 3 (reusing the lookup's Canon).
func classifyCold(t truth.Table, ix *truth.Index) int {
	n := 0
	var hits []truth.Hit
	var canon truth.Table
	if t.N >= 3 {
		hits, canon, _ = ix.LookupCanon(t)
	} else {
		hits = ix.Lookup(t)
	}
	for _, h := range hits {
		if !h.Unique {
			if _, ok := t.MatchAgainst(h.Entry.Table); !ok {
				panic("index hit rejected by MatchAgainst")
			}
		}
		n++
	}
	if n == 0 && t.N >= 3 {
		if canon.String() == "" {
			panic("empty canonical key")
		}
	}
	return n
}

func TestMatchBench(t *testing.T) {
	out := os.Getenv("BENCH_MATCH_OUT")
	if out == "" {
		t.Skip("set BENCH_MATCH_OUT=<file> to run the matching microbenchmark")
	}
	stream := collectCutStream()
	if len(stream) == 0 {
		t.Fatal("empty cut stream")
	}
	lib := truth.Library()
	byArity := make(map[int][]truth.Entry)
	for _, e := range lib {
		byArity[e.Table.N] = append(byArity[e.Table.N], e)
	}
	ix := truth.NewIndex(lib) // fresh index: DefaultIndex may be pre-warmed

	// Every pass must consume its results so nothing is optimized away;
	// the totals also cross-check that the classifiers agree.
	const reps = 3
	var slowHits, fastHits, coldHits, warmHits int

	// Old implementation: full per-cut work, nothing memoized.
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		slowHits = 0
		for _, tab := range stream {
			slowHits += classifySlow(tab, byArity)
		}
	}
	slowNs := float64(time.Since(t0).Nanoseconds()) / float64(reps*len(stream))

	// New implementation: the memoized classifier exactly as a Find worker
	// runs it — misses pay the index lookup, hits pay one map probe. A
	// fresh memo per rep so every rep pays the true miss costs.
	var distinct int
	t1 := time.Now()
	for r := 0; r < reps; r++ {
		fastHits = 0
		memo := make(map[truth.Table]int, 1<<10)
		for _, tab := range stream {
			n, ok := memo[tab]
			if !ok {
				n = classifyCold(tab, ix)
				memo[tab] = n
			}
			fastHits += n
		}
		distinct = len(memo)
	}
	fastNs := float64(time.Since(t1).Nanoseconds()) / float64(reps*len(stream))

	// Secondary breakdown: pure memo-miss cost (every cut through the
	// index, no memo) and pure memo-hit cost (memo pre-filled).
	t2 := time.Now()
	for r := 0; r < reps; r++ {
		coldHits = 0
		for _, tab := range stream {
			coldHits += classifyCold(tab, ix)
		}
	}
	coldNs := float64(time.Since(t2).Nanoseconds()) / float64(reps*len(stream))

	memo := make(map[truth.Table]int, 1<<10)
	for _, tab := range stream {
		memo[tab] = classifyCold(tab, ix)
	}
	t3 := time.Now()
	for r := 0; r < reps; r++ {
		warmHits = 0
		for _, tab := range stream {
			warmHits += memo[tab]
		}
	}
	warmNs := float64(time.Since(t3).Nanoseconds()) / float64(reps*len(stream))

	if slowHits != fastHits || fastHits != coldHits || coldHits != warmHits {
		t.Fatalf("classifier disagreement: slow=%d fast=%d cold=%d warm=%d",
			slowHits, fastHits, coldHits, warmHits)
	}

	res := matchBenchResult{
		Design:         "bigsoc",
		Cuts:           len(stream),
		DistinctTables: distinct,
		SlowNsPerCut:   slowNs,
		FastNsPerCut:   fastNs,
		ColdNsPerCut:   coldNs,
		WarmNsPerCut:   warmNs,
		Speedup:        slowNs / fastNs,
		CutsPerSecSlow: 1e9 / slowNs,
		CutsPerSecFast: 1e9 / fastNs,
	}

	// Acceptance gate: the memoized index classifier must be at least 3x
	// faster per cut than the old per-entry search.
	if res.Speedup < 3 {
		t.Errorf("speedup %.2fx, want >= 3x (slow %.0f ns/cut, fast %.1f ns/cut)",
			res.Speedup, slowNs, fastNs)
	}

	// Regression gate vs the committed baseline: the speedup ratio is
	// machine-independent, so a generous 1.5x slack catches real
	// regressions without flaking on slower CI hosts.
	if bl, err := os.ReadFile("testdata/bench_match_baseline.json"); err == nil {
		var base matchBenchResult
		if err := json.Unmarshal(bl, &base); err != nil {
			t.Fatalf("corrupt baseline: %v", err)
		}
		res.BaselineSpeedup = base.Speedup
		if res.Speedup < base.Speedup/1.5 {
			t.Errorf("speedup %.2fx regressed below baseline %.2fx / 1.5",
				res.Speedup, base.Speedup)
		}
	}

	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cuts (%d distinct): slow %.0f ns, fast %.1f ns (%.1fx); cold %.0f ns, warm %.1f ns -> %s",
		len(stream), distinct, slowNs, fastNs, res.Speedup, coldNs, warmNs, out)
}
