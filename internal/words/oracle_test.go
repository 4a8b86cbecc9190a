package words_test

// Oracle test for the stamped control-wire search: the map-based routine
// it replaced is kept here, and both must return the same wires for every
// (source, target) pair PropagateAll checks.

import (
	"slices"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/simplify"
	"netlistre/internal/words"
)

// mapControlWires is the original search: a seen map per target walk and a
// count map over all of them.
func mapControlWires(nl *netlist.Netlist, src, tgt words.Word) []netlist.ID {
	inSrc := make(map[netlist.ID]bool, len(src.Bits))
	for _, b := range src.Bits {
		inSrc[b] = true
	}
	counts := make(map[netlist.ID]int)
	for _, g := range tgt.Bits {
		seen := make(map[netlist.ID]bool)
		frontier := []netlist.ID{g}
		for d := 0; d < 3; d++ {
			var nextLayer []netlist.ID
			for _, x := range frontier {
				for _, f := range nl.Fanin(x) {
					if inSrc[f] || seen[f] {
						continue
					}
					seen[f] = true
					nextLayer = append(nextLayer, f)
				}
			}
			frontier = nextLayer
		}
		for x := range seen {
			counts[x]++
		}
	}
	var out []netlist.ID
	for x, c := range counts {
		if c == len(tgt.Bits) {
			out = append(out, x)
		}
	}
	out = netlist.SortedIDs(out)
	if len(out) > 12 {
		out = out[:12]
	}
	return out
}

// propagationDesigns returns the 18 labeled articles and, outside -short,
// simplified BigSoC.
func propagationDesigns(t testing.TB) map[string]*netlist.Netlist {
	t.Helper()
	designs := make(map[string]*netlist.Netlist)
	for _, name := range gen.LabeledArticleNames() {
		nl, _, err := gen.LabeledArticle(name)
		if err != nil {
			t.Fatal(err)
		}
		designs[name] = nl
	}
	if !testing.Short() {
		designs["bigsoc"] = simplify.Run(gen.BigSoC()).Netlist
	}
	return designs
}

// TestControlWiresMatchesMapSearch runs PropagateAll from the words stage's
// seeds and compares the control wires of every pair it checks: each word
// it returns (a superset of the words it expanded) against each of its
// forward and backward guesses.
func TestControlWiresMatchesMapSearch(t *testing.T) {
	for name, nl := range propagationDesigns(t) {
		seeds := core.Analyze(nl, core.Options{Workers: 1, SkipWordProp: true}).Words
		all, _ := words.PropagateAll(nl, seeds, 3, words.Options{})
		pairs := 0
		check := func(src, tgt words.Word) {
			pairs++
			got, want := words.ControlWires(nl, src, tgt), mapControlWires(nl, src, tgt)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %v -> %v: control wires %v, map search %v", name, src.Bits, tgt.Bits, got, want)
			}
		}
		for _, w := range all {
			for _, cand := range words.GuessForward(nl, w) {
				check(w, cand)
			}
			for _, cand := range words.GuessBackward(nl, w) {
				check(cand, w)
			}
		}
		if pairs == 0 {
			t.Errorf("%s: no pairs checked", name)
		}
	}
}
