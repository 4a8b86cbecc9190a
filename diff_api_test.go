package netlistre_test

// Public-API differential tests: the exported DiffNetlists surface must
// recover the exact injected trojan gate set on every labeled golden/
// suspect article pair, report a self-diff as identical, and stay
// invariant under the metamorphic mutations that rewrite the suspect
// without touching its logic (topological reorder, internal renames).

import (
	"sort"
	"testing"

	"netlistre"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/oracle/mutate"
)

func sortedTrojan(lab *gen.Labels) []netlist.ID {
	want := append([]netlist.ID(nil), lab.Trojan...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	return want
}

func sameIDs(a, b []netlist.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPublicDiffRecoversTrojans drives the exported API over every
// golden/suspect pair: the added set must be exactly the labeled trojan
// nodes, with nothing removed or retyped.
func TestPublicDiffRecoversTrojans(t *testing.T) {
	for _, pair := range gen.TrojanArticlePairs() {
		pair := pair
		t.Run(pair[1], func(t *testing.T) {
			golden, _, err := gen.LabeledArticle(pair[0])
			if err != nil {
				t.Fatal(err)
			}
			suspect, lab, err := gen.LabeledArticle(pair[1])
			if err != nil {
				t.Fatal(err)
			}
			d := netlistre.DiffNetlists(golden, suspect)
			if want := sortedTrojan(lab); !sameIDs(d.Added, want) {
				t.Errorf("Added = %v, want exactly the %d labeled trojan nodes %v",
					d.Added, len(want), want)
			}
			if len(d.Removed) != 0 || len(d.Retyped) != 0 {
				t.Errorf("Removed = %v, Retyped = %v; the trojan only adds logic",
					d.Removed, d.Retyped)
			}
			if d.Identical() {
				t.Error("Identical() = true for a trojaned suspect")
			}
		})
	}
}

// TestPublicDiffSelfIsIdentical: any netlist against itself is an empty
// diff.
func TestPublicDiffSelfIsIdentical(t *testing.T) {
	for _, name := range []string{"oc8051", "evoter", "oc8051-trojan", "evoter-trojan"} {
		nl, _, err := gen.LabeledArticle(name)
		if err != nil {
			t.Fatal(err)
		}
		d := netlistre.DiffNetlists(nl, nl)
		if !d.Identical() {
			t.Errorf("%s: self-diff not identical: +%d -%d ~%d matched=%d",
				name, len(d.Added), len(d.Removed), len(d.Retyped), d.Matched)
		}
	}
}

// TestPublicDiffMetamorphic: rebuilding the suspect in a shuffled gate
// order ("reorder") or renaming every internal node ("rename") must not
// change what the diff recovers — the added set still equals the mutant's
// remapped trojan label exactly.
func TestPublicDiffMetamorphic(t *testing.T) {
	for _, pair := range gen.TrojanArticlePairs() {
		golden, _, err := gen.LabeledArticle(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		suspect, lab, err := gen.LabeledArticle(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, mutName := range []string{"reorder", "rename"} {
			t.Run(pair[1]+"/"+mutName, func(t *testing.T) {
				m, err := mutate.Named(mutName)
				if err != nil {
					t.Fatal(err)
				}
				mut, err := m.Apply(suspect, lab, 11)
				if err != nil {
					t.Fatal(err)
				}
				d := netlistre.DiffNetlists(golden, mut.Netlist)
				if want := sortedTrojan(mut.Labels); !sameIDs(d.Added, want) {
					t.Errorf("Added = %v, want the mutant's %d remapped trojan nodes %v",
						d.Added, len(want), want)
				}
				if len(d.Removed) != 0 || len(d.Retyped) != 0 {
					t.Errorf("Removed = %v, Retyped = %v; mutation must not surface as a change",
						d.Removed, d.Retyped)
				}
			})
		}
	}
}

// TestPublicBoundedCone exercises the exported cone-query surface on a
// trojan article: the fan-out cone of a primary input reaches gates, caps
// hold, and the fan-in cone of an output driver terminates at inputs.
func TestPublicBoundedCone(t *testing.T) {
	nl := netlistre.EVoterTrojaned()
	inputs := nl.Inputs()
	if len(inputs) == 0 {
		t.Fatal("article has no inputs")
	}
	res := nl.BoundedCone(inputs[0], netlistre.ConeFanout, 3, 50)
	if len(res.Nodes) == 0 || res.Nodes[0].ID != inputs[0] || res.Nodes[0].Depth != 0 {
		t.Fatalf("fanout cone must start at the root: %+v", res.Nodes)
	}
	if len(res.Nodes) > 50 {
		t.Errorf("size cap violated: %d nodes", len(res.Nodes))
	}
	for i := 1; i < len(res.Nodes); i++ {
		if res.Nodes[i].Depth < res.Nodes[i-1].Depth {
			t.Errorf("nodes not in BFS depth order at %d", i)
		}
		if res.Nodes[i].Depth > 3 {
			t.Errorf("depth cap violated: node %v at depth %d", res.Nodes[i].ID, res.Nodes[i].Depth)
		}
	}

	outs := nl.Outputs()
	if len(outs) == 0 {
		t.Fatal("article has no outputs")
	}
	fi := nl.BoundedCone(outs[0].Driver, netlistre.ConeFanin, 0, 0)
	if len(fi.Nodes) < 2 {
		t.Fatalf("unbounded fan-in cone of an output driver is implausibly small: %d", len(fi.Nodes))
	}
	if fi.TruncatedDepth || fi.TruncatedSize {
		t.Error("unbounded traversal reported truncation")
	}
}
