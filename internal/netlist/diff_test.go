package netlist_test

// Unit tests for the structural differ. The heavy golden gates (exact
// trojan recovery on the labeled articles, metamorphic invariance) live in
// the root package's diff tests against the public API; these cover the
// matcher's primitive behaviors on small hand-built netlists plus a quick
// trojan-article sanity pass.

import (
	"sort"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/netlist"
)

// buildPair builds two structurally identical netlists with a small
// spliced difference in the second when trojaned is set: an extra And gate
// inserted between an adder-ish chain and a latch.
func buildChain(trojaned bool) *netlist.Netlist {
	nl := netlist.New("chain")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	en := nl.AddInput("en")
	x := nl.AddGate(netlist.Xor, a, b)
	y := nl.AddGate(netlist.And, x, en)
	src := y
	if trojaned {
		trigger := nl.AddGate(netlist.And, a, en)
		kill := nl.AddGate(netlist.Not, trigger)
		src = nl.AddGate(netlist.And, y, kill)
	}
	q := nl.AddLatch(src)
	out := nl.AddGate(netlist.Or, q, b)
	nl.MarkOutput("out", out)
	if err := nl.Validate(); err != nil {
		panic(err)
	}
	return nl
}

func TestDiffSelfIsEmpty(t *testing.T) {
	g := buildChain(false)
	s := buildChain(false)
	d := netlist.DiffNetlists(g, s)
	if !d.Identical() {
		t.Fatalf("self-diff not empty: %+v", d)
	}
	if d.Matched == 0 {
		t.Fatalf("self-diff matched nothing")
	}
}

func TestDiffFindsSplicedGates(t *testing.T) {
	g := buildChain(false)
	s := buildChain(true)
	d := netlist.DiffNetlists(g, s)
	if len(d.Removed) != 0 || len(d.Retyped) != 0 {
		t.Fatalf("unexpected removed/retyped: %+v", d)
	}
	// The three injected gates: And(a,en), Not, And(y,kill).
	if len(d.Added) != 3 {
		t.Fatalf("want 3 added gates, got %v", d.Added)
	}
}

func TestDiffRetypedGate(t *testing.T) {
	g := buildChain(false)
	s := netlist.New("chain")
	a := s.AddInput("a")
	b := s.AddInput("b")
	en := s.AddInput("en")
	x := s.AddGate(netlist.Xnor, a, b) // retyped: Xor -> Xnor
	y := s.AddGate(netlist.And, x, en)
	q := s.AddLatch(y)
	out := s.AddGate(netlist.Or, q, b)
	s.MarkOutput("out", out)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	d := netlist.DiffNetlists(g, s)
	if len(d.Retyped) != 1 {
		t.Fatalf("want 1 retyped pair, got %+v", d)
	}
	if len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Fatalf("retyped gate leaked into added/removed: %+v", d)
	}
	if got := d.SuspectSet(); len(got) != 1 || got[0] != x {
		t.Fatalf("suspect set = %v, want [%d]", got, x)
	}
}

func TestDiffBoundaryChanges(t *testing.T) {
	g := buildChain(false)
	s := buildChain(false)
	extra := s.AddInput("spare")
	s.MarkOutput("dbg", extra)
	d := netlist.DiffNetlists(g, s)
	if len(d.InputsAdded) != 1 || d.InputsAdded[0] != "spare" {
		t.Fatalf("InputsAdded = %v", d.InputsAdded)
	}
	if len(d.OutputsAdded) != 1 || d.OutputsAdded[0] != "dbg" {
		t.Fatalf("OutputsAdded = %v", d.OutputsAdded)
	}
	if d.Identical() {
		t.Fatalf("boundary change not detected")
	}
}

func idsEqual(a, b []netlist.ID) bool {
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

// TestDiffTrojanArticles is the core exactness gate at the matcher level:
// for every golden/suspect article pair the added set must be exactly the
// recorded trojan span.
func TestDiffTrojanArticles(t *testing.T) {
	for _, pair := range gen.TrojanArticlePairs() {
		golden, suspect := pair[0], pair[1]
		t.Run(suspect, func(t *testing.T) {
			g, _, err := gen.LabeledArticle(golden)
			if err != nil {
				t.Fatal(err)
			}
			s, lab, err := gen.LabeledArticle(suspect)
			if err != nil {
				t.Fatal(err)
			}
			d := netlist.DiffNetlists(g, s)
			want := append([]netlist.ID(nil), lab.Trojan...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if !idsEqual(d.Added, want) {
				t.Errorf("added = %d nodes, want %d trojan nodes (passes=%d)",
					len(d.Added), len(want), d.Passes)
				t.Errorf("missing=%v extra=%v",
					idsDiff(want, d.Added), idsDiff(d.Added, want))
			}
			if len(d.Removed) != 0 || len(d.Retyped) != 0 {
				t.Errorf("removed=%v retyped=%v, want none", d.Removed, d.Retyped)
			}
		})
	}
}

func idsDiff(a, b []netlist.ID) []netlist.ID {
	inB := map[netlist.ID]bool{}
	for _, id := range b {
		inB[id] = true
	}
	var out []netlist.ID
	for _, id := range a {
		if !inB[id] {
			out = append(out, id)
		}
	}
	return out
}
