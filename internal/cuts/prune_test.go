package cuts

// Oracle test for the bucketed prune: the sort-then-scan routine it
// replaced is kept here and both must keep the same leaf sets in the same
// order on random pending sets.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netlistre/internal/netlist"
)

// sortThenScanPrune is the original prune: sort every pending set by (leaf
// count, leaf order), then scan, keeping a set unless an already-kept set
// is a subset of it, until maxCuts are kept.
func sortThenScanPrune(ps []pendingCut, maxCuts int) []pendingCut {
	slices.SortFunc(ps, func(x, y pendingCut) int {
		if len(x.leaves) != len(y.leaves) {
			return len(x.leaves) - len(y.leaves)
		}
		return slices.Compare(x.leaves, y.leaves)
	})
	kept := ps[:0]
	for _, c := range ps {
		dominated := false
		for _, k := range kept {
			if k.sig&^c.sig != 0 || len(k.leaves) > len(c.leaves) {
				continue // cannot be a subset
			}
			if isSubset(k.leaves, c.leaves) {
				if len(k.leaves) < len(c.leaves) || slices.Equal(k.leaves, c.leaves) {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			kept = append(kept, c)
			if len(kept) >= maxCuts {
				break
			}
		}
	}
	return kept
}

// randomPending draws n pending sets of 1..k leaves over a universe of
// IDs small enough that duplicates and subsets are common, one of them
// the 0-leaf constant set when constant is set. Every set gets distinct
// parent indices (a, b), as a fold's pairs do.
func randomPending(rng *rand.Rand, n, k, universe int, constant bool) []pendingCut {
	ps := make([]pendingCut, n)
	for i := range ps {
		var leaves []netlist.ID
		for _, v := range rng.Perm(universe)[:1+rng.Intn(k)] {
			leaves = append(leaves, netlist.ID(v*7))
		}
		slices.Sort(leaves)
		ps[i] = pendingCut{leaves: leaves, a: i / 16, b: i % 16}
	}
	// Duplicate some sets under other parents.
	for i := 0; i < n/4; i++ {
		ps[rng.Intn(n)].leaves = ps[rng.Intn(n)].leaves
	}
	if constant {
		ps[rng.Intn(n)].leaves = nil
	}
	for i := range ps {
		ps[i].sig = leafSig(ps[i].leaves)
	}
	return ps
}

func leafSets(ps []pendingCut) string {
	var out []string
	for _, p := range ps {
		out = append(out, fmt.Sprint(p.leaves))
	}
	return fmt.Sprint(out)
}

// TestPruneMatchesSortThenScan compares the bucketed prune with the
// sort-then-scan one on random pending sets, with maxCuts drawn so that
// truncation often lands in the middle of a bucket. Equal sets may differ
// in which pair produced them, since the old sort was unstable; the
// bucketed prune must keep the one with the least (a, b).
func TestPruneMatchesSortThenScan(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var sc scratch
	midBucket, constant, dups := 0, 0, 0
	for trial := 0; trial < 4000; trial++ {
		k := 1 + rng.Intn(6)
		ps := randomPending(rng, 1+rng.Intn(300), k, k+rng.Intn(8), rng.Intn(20) == 0)
		maxCuts := 1 + rng.Intn(len(ps)+2)
		if rng.Intn(3) == 0 {
			maxCuts = DefaultMaxCuts
		}
		want := sortThenScanPrune(slices.Clone(ps), maxCuts)
		in := slices.Clone(ps)
		got := sc.prune(in, maxCuts)
		if !slices.EqualFunc(in, ps, func(x, y pendingCut) bool {
			return slices.Equal(x.leaves, y.leaves) && x.a == y.a && x.b == y.b
		}) {
			t.Fatalf("trial %d: prune modified its input", trial)
		}
		if leafSets(got) != leafSets(want) {
			t.Fatalf("trial %d (k=%d, maxCuts=%d, %d pending):\nbucketed       %s\nsort-then-scan %s",
				trial, k, maxCuts, len(ps), leafSets(got), leafSets(want))
		}
		for _, g := range got {
			for _, p := range ps {
				if slices.Equal(p.leaves, g.leaves) && (p.a < g.a || p.a == g.a && p.b < g.b) {
					t.Fatalf("trial %d: kept %v from (%d,%d), not the least pair (%d,%d)",
						trial, g.leaves, g.a, g.b, p.a, p.b)
				}
			}
		}
		full := sortThenScanPrune(slices.Clone(ps), len(ps))
		if n := len(got); n < len(full) && len(full[n].leaves) == len(full[n-1].leaves) {
			midBucket++
		}
		if len(full) > 0 && len(full[0].leaves) == 0 {
			constant++
		}
		if len(full) < len(ps) {
			for i := range ps {
				if slices.ContainsFunc(ps[i+1:], func(p pendingCut) bool { return slices.Equal(p.leaves, ps[i].leaves) }) {
					dups++
					break
				}
			}
		}
	}
	if midBucket == 0 || constant == 0 || dups == 0 {
		t.Fatalf("coverage: %d trials truncated inside a bucket, %d kept a 0-leaf set, %d had duplicates",
			midBucket, constant, dups)
	}
	t.Logf("%d trials truncated inside a bucket, %d kept a 0-leaf set, %d had duplicates", midBucket, constant, dups)
}
