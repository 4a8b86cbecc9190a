package cuts

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/simplify"
)

// serialReference enumerates n in one walk of netlist.TopoOrder with one
// scratch, as EnumerateByID did before it split the gates into components,
// and checks every stored signature against its cut's leaves.
func serialReference(n *netlist.Netlist, opt Options) [][]Cut {
	opt.defaults()
	s := newSets(n)
	var sc scratch
	for _, id := range n.TopoOrder() {
		switch kind := n.Kind(id); {
		case !kind.IsGate():
		case kind == netlist.Lut:
			s.cuts[id], s.sigs[id] = enumerateLut(n, id, s, opt, &sc)
		default:
			s.cuts[id], s.sigs[id] = enumerateGate(n, id, s, opt, &sc)
		}
		for i, c := range s.cuts[id] {
			if s.sigs[id][i] != leafSig(c.Leaves) {
				panic(fmt.Sprintf("node %d cut %d: signature %#x, want %#x", id, i, s.sigs[id][i], leafSig(c.Leaves)))
			}
		}
	}
	return s.cuts
}

// sameCuts describes the first difference between two cut sets of one node,
// comparing leaves, tables and order; it returns "" when they are equal.
func sameCuts(want, got []Cut) string {
	if (want == nil) != (got == nil) || len(want) != len(got) {
		return fmt.Sprintf("%d cuts (nil %v), want %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		w, g := want[i], got[i]
		if !slices.Equal(w.Leaves, g.Leaves) || w.Table != g.Table {
			return fmt.Sprintf("cut %d is %v/%v, want %v/%v", i, g.Leaves, g.Table, w.Leaves, w.Table)
		}
	}
	return ""
}

// TestWorkersMatchSerialReference: at every worker count, the component
// enumeration gives every node the cut set of the serial topological walk,
// leaves, tables and order alike, on the labeled articles, on random
// circuits that mix gates and LUTs and, outside -short, on simplified
// BigSoC.
func TestWorkersMatchSerialReference(t *testing.T) {
	designs := map[string]func() *netlist.Netlist{}
	for _, name := range gen.LabeledArticleNames() {
		designs[name] = func() *netlist.Netlist {
			nl, _, err := gen.LabeledArticle(name)
			if err != nil {
				t.Fatal(err)
			}
			return nl
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		designs[fmt.Sprintf("mixed-%d", seed)] = func() *netlist.Netlist {
			return randomMixed(rand.New(rand.NewSource(seed)), 6+int(seed), 300*int(seed))
		}
	}
	if !testing.Short() {
		designs["bigsoc"] = func() *netlist.Netlist { return simplify.Run(gen.BigSoC()).Netlist }
	}
	if n := len(gen.LabeledArticleNames()); n != 18 {
		t.Fatalf("%d labeled articles, want 18", n)
	}
	for name, build := range designs {
		t.Run(name, func(t *testing.T) {
			nl := build()
			want := serialReference(nl, Options{})
			for _, workers := range []int{1, 2, 4} {
				got := EnumerateByID(nl, Options{Workers: workers})
				for id := range want {
					if d := sameCuts(want[id], got[id]); d != "" {
						t.Fatalf("workers %d, node %d: %s", workers, id, d)
					}
				}
			}
		})
	}
}

// TestInterruptLeavesOnlyUnreachedNil fires the interrupt halfway through
// the polls of an uninterrupted run. Every boundary set must still be
// there, every gate's set must be nil or the serial reference's, and a
// gate whose set is there must have all its fanins' sets.
func TestInterruptLeavesOnlyUnreachedNil(t *testing.T) {
	nl, _, err := gen.LabeledArticle("mips16")
	if err != nil {
		t.Fatal(err)
	}
	want := serialReference(nl, Options{})
	gates := len(nl.Gates())
	for _, workers := range []int{1, 2, 4} {
		var polls atomic.Int64
		EnumerateByID(nl, Options{Workers: workers, Interrupt: func() bool { polls.Add(1); return false }})
		total := polls.Load()
		if total < 20 {
			t.Fatalf("workers %d: only %d polls in a full run", workers, total)
		}
		polls.Store(0)
		got := EnumerateByID(nl, Options{Workers: workers, Interrupt: func() bool { return polls.Add(1) > total/2 }})
		reached := 0
		for id, cs := range got {
			if cs == nil {
				if !nl.Kind(netlist.ID(id)).IsGate() {
					t.Fatalf("workers %d: boundary node %d has no cut set", workers, id)
				}
				continue
			}
			if d := sameCuts(want[id], cs); d != "" {
				t.Fatalf("workers %d, node %d: %s", workers, id, d)
			}
			if !nl.Kind(netlist.ID(id)).IsGate() {
				continue
			}
			reached++
			for _, f := range nl.Fanin(netlist.ID(id)) {
				if got[f] == nil {
					t.Fatalf("workers %d: node %d has cuts but its fanin %d has none", workers, id, f)
				}
			}
		}
		if reached == 0 || reached == gates {
			t.Errorf("workers %d: interrupt at poll %d of %d reached %d of %d gates, want some but not all", workers, total/2+1, total, reached, gates)
		}
	}
}
