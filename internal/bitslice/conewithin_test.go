package bitslice

import (
	"slices"
	"testing"

	"netlistre/internal/cuts"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/simplify"
	"netlistre/internal/truth"
)

// mapConeWithin is the original cone walk, with a leaf map and a visited
// map per call.
func mapConeWithin(nl *netlist.Netlist, root netlist.ID, leaves []netlist.ID) []netlist.ID {
	isLeaf := make(map[netlist.ID]bool, len(leaves))
	for _, l := range leaves {
		isLeaf[l] = true
	}
	seen := map[netlist.ID]bool{root: true}
	stack := []netlist.ID{root}
	var out []netlist.ID
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, id)
		for _, f := range nl.Fanin(id) {
			if isLeaf[f] || seen[f] || !nl.Kind(f).IsComb() {
				continue
			}
			seen[f] = true
			stack = append(stack, f)
		}
	}
	slices.Sort(out)
	return out
}

// TestConeWithinMatchesMapWalk checks every match's cone, library and
// unknown-class matches alike, against the map-based walk over the same
// leaves (a match's Args are its shrunk cut leaves in argument order), on
// every labeled article and on simplified BigSoC.
func TestConeWithinMatchesMapWalk(t *testing.T) {
	designs := articles(t)
	if !testing.Short() {
		designs["bigsoc"] = simplify.Run(gen.BigSoC()).Netlist
	}
	for name, nl := range designs {
		res := Find(nl, Options{KeepUnknown: true, Workers: 2})
		n := 0
		check := func(m *Match) {
			n++
			if want := mapConeWithin(nl, m.Root, m.Args); !slices.Equal(m.Cone, want) {
				t.Fatalf("%s: root %d args %v: cone %v, map walk %v", name, m.Root, m.Args, m.Cone, want)
			}
		}
		for _, ms := range res.ByRoot {
			for _, m := range ms {
				check(m)
			}
		}
		for _, ms := range res.UnknownClasses {
			for _, m := range ms {
				check(m)
			}
		}
		if n == 0 {
			t.Errorf("%s: no matches", name)
		}
	}
}

// TestMatchNodeNoMatchAllocs: classifying cuts that match no library
// slice allocates nothing, with or without vacuous leaves to shrink away.
// The gate's cuts compute a 5-input AND, an arity no library entry has;
// the LUT's ignore one of six inputs and shrink to the same function.
func TestMatchNodeNoMatchAllocs(t *testing.T) {
	nl := netlist.New("nomatch")
	var in []netlist.ID
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		in = append(in, nl.AddInput(name))
	}
	and5 := nl.AddGate(netlist.And, in[:5]...)
	var mask uint64
	for r := uint(0); r < 64; r++ {
		if r&31 == 31 {
			mask |= 1 << r // x0..x4 all 1, x5 vacuous
		}
	}
	lut := nl.AddLut(mask, in...)
	sets := cuts.EnumerateByID(nl, cuts.Options{})
	cl := &classifier{ix: truth.DefaultIndex(), memo: make(map[truth.Table]classification)}
	walk := &coneWalk{seen: nl.Visits()}
	defer walk.seen.Release()
	perNode := make([][]*Match, nl.Len())
	for _, id := range []netlist.ID{and5, lut} {
		if len(sets[id]) < 2 {
			t.Fatalf("node %d: %d cuts, want a non-trivial one", id, len(sets[id]))
		}
		if allocs := testing.AllocsPerRun(100, func() {
			matchNode(nl, id, sets[id], cl, walk, perNode, nil)
		}); allocs != 0 {
			t.Errorf("node %d: %v allocations per call", id, allocs)
		}
		if len(perNode[id]) != 0 {
			t.Errorf("node %d: %d matches, want none", id, len(perNode[id]))
		}
	}
}
