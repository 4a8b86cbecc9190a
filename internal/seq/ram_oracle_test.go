package seq

import (
	"reflect"
	"testing"

	"netlistre/internal/bitslice"
	"netlistre/internal/gen"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/simplify"
)

// everyRootBits is the reference for readBits: every candidate root gets
// its BDD check, then verified roots inside another verified root's cone
// are dropped.
func everyRootBits(nl *netlist.Netlist, marked []bool, roots []netlist.ID) []readBit {
	var bits []readBit
	for _, root := range roots {
		if sel, cells, ok := verifyReadBehavior(nl, marked, root); ok {
			bits = append(bits, readBit{root, sel, cells, nl.ConeOf(root).Nodes})
		}
	}
	interior := make(map[netlist.ID]bool)
	for _, b := range bits {
		for _, n := range b.cone {
			if n != b.root {
				interior[n] = true
			}
		}
	}
	var kept []readBit
	for _, b := range bits {
		if !interior[b.root] {
			kept = append(kept, b)
		}
	}
	return kept
}

// markFixedPoint is the reference for markReadLogic: it sweeps the nodes in
// ID order until no mark changes.
func markFixedPoint(nl *netlist.Netlist) []bool {
	marked := make([]bool, nl.Len())
	for _, l := range nl.Latches() {
		marked[l] = true
	}
	for changed := true; changed; {
		changed = false
		for id := netlist.ID(0); int(id) < nl.Len(); id++ {
			if marked[id] || !nl.Kind(id).IsGate() || len(nl.Fanout(id)) > 1 {
				continue
			}
			for _, f := range nl.Fanin(id) {
				if marked[f] {
					marked[id], changed = true, true
					break
				}
			}
		}
	}
	return marked
}

// TestFindRAMsMatchesEveryRoot checks that verifying read roots top down,
// skipping those inside a verified root's cone, returns the same RAM
// modules (names, ports, elements, attributes) as verifying every root, on
// every labeled article and on simplified BigSoC. The one-pass marking is
// checked against the fixed-point sweep on the way.
func TestFindRAMsMatchesEveryRoot(t *testing.T) {
	names := gen.LabeledArticleNames()
	if !testing.Short() {
		names = append(names, "bigsoc")
	}
	for _, name := range names {
		var nl *netlist.Netlist
		if name == "bigsoc" {
			nl = simplify.Run(gen.BigSoC()).Netlist
		} else {
			var err error
			if nl, _, err = gen.LabeledArticle(name); err != nil {
				t.Fatal(err)
			}
		}
		slices := bitslice.Find(nl, bitslice.Options{})
		order := nl.TopoOrder()
		marked := markReadLogic(nl, order)
		if !reflect.DeepEqual(marked, markFixedPoint(nl)) {
			t.Errorf("%s: one-pass read-logic marking differs from the fixed point", name)
		}
		roots := readRoots(nl, marked, order)
		want := ramModules(nl, marked, everyRootBits(nl, marked, roots), slices)
		got := FindRAMs(nl, slices)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: top-down FindRAMs differs from verifying every root:\ngot  %v\nwant %v", name, moduleNames(got), moduleNames(want))
		}
		t.Logf("%s: %d candidate roots, %d RAMs", name, len(roots), len(got))
	}
}

func moduleNames(mods []*module.Module) []string {
	var out []string
	for _, m := range mods {
		out = append(out, m.Name)
	}
	return out
}

var benchRAMs []*module.Module

// BenchmarkFindRAMs runs the RAM stage on riscfpu-lut, whose register file
// gives the stage its most candidate read roots.
func BenchmarkFindRAMs(b *testing.B) {
	nl, _, err := gen.LabeledArticle("riscfpu-lut")
	if err != nil {
		b.Fatal(err)
	}
	slices := bitslice.Find(nl, bitslice.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRAMs = FindRAMs(nl, slices)
	}
}
