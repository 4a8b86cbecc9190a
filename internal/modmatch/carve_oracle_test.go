package modmatch_test

// Oracle test for the indexed carve: the map-based routine it replaced is
// kept here, and both must return the same candidates.

import (
	"reflect"
	"sort"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/modmatch"
	"netlistre/internal/netlist"
	"netlistre/internal/words"
)

// mapCandidates is the original carve: seen, boundary and used-bit maps
// per candidate, and a scan of every word for the input words.
func mapCandidates(nl *netlist.Netlist, wordSet []words.Word) []modmatch.Candidate {
	wordOf := make(map[netlist.ID][]int)
	for wi, w := range wordSet {
		for _, b := range w.Bits {
			wordOf[b] = append(wordOf[b], wi)
		}
	}
	var cands []modmatch.Candidate
	for wi, w := range wordSet {
		if len(w.Bits) < 4 || len(w.Bits) > 16 {
			continue
		}
		allGates := true
		for _, b := range w.Bits {
			if !nl.Kind(b).IsGate() {
				allGates = false
				break
			}
		}
		if !allGates {
			continue
		}
		cand := mapCarve(nl, wordSet, wordOf, wi)
		if len(cand.Inputs) == 0 || len(cand.Inputs) > 2 || len(cand.Side) > 6 {
			continue
		}
		cands = append(cands, cand)
	}
	return cands
}

func mapCarve(nl *netlist.Netlist, wordSet []words.Word, wordOf map[netlist.ID][]int, wi int) modmatch.Candidate {
	w := wordSet[wi]
	seen := make(map[netlist.ID]bool)
	boundary := make(map[netlist.ID]bool)
	var gates []netlist.ID
	stack := append([]netlist.ID(nil), w.Bits...)
	for _, b := range w.Bits {
		seen[b] = true
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		gates = append(gates, id)
		for _, f := range nl.Fanin(id) {
			if seen[f] || boundary[f] {
				continue
			}
			isCut := nl.Kind(f).IsConeInput() || !nl.Kind(f).IsGate()
			if !isCut {
				for _, owi := range wordOf[f] {
					if owi != wi {
						isCut = true
						break
					}
				}
			}
			if isCut {
				boundary[f] = true
				continue
			}
			seen[f] = true
			stack = append(stack, f)
		}
	}
	var inputWords []words.Word
	usedBits := make(map[netlist.ID]bool)
	for owi, ow := range wordSet {
		if owi == wi || len(ow.Bits) != len(w.Bits) {
			continue
		}
		all := true
		for _, b := range ow.Bits {
			if !boundary[b] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		dup := false
		for _, b := range ow.Bits {
			if usedBits[b] {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		for _, b := range ow.Bits {
			usedBits[b] = true
		}
		inputWords = append(inputWords, ow)
		if len(inputWords) == 2 {
			break
		}
	}
	var side []netlist.ID
	for b := range boundary {
		if !usedBits[b] {
			side = append(side, b)
		}
	}
	side = netlist.SortedIDs(side)
	sort.Slice(gates, func(i, j int) bool { return gates[i] < gates[j] })
	return modmatch.Candidate{Out: w, Inputs: inputWords, Side: side, Gates: gates}
}

// TestCandidatesOracle: on every labeled article and, outside -short, the
// simplified BigSoC, Candidates returns exactly the map-based carve's
// candidates — outputs, input words, side inputs and regions.
func TestCandidatesOracle(t *testing.T) {
	sets := map[string][]design{}
	for _, name := range gen.LabeledArticleNames() {
		nl, ws := articleWords(t, name)
		sets[name] = []design{{nl, ws}}
	}
	if !testing.Short() {
		sets["bigsoc"] = benchDesigns(t, "bigsoc")
	}
	for name, ds := range sets {
		d := ds[0]
		got, want := modmatch.Candidates(d.nl, d.ws, modmatch.Options{}), mapCandidates(d.nl, d.ws)
		if len(want) == 0 {
			t.Errorf("%s: no candidates", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d candidates, map carve %d, or they differ", name, len(got), len(want))
		}
	}
}
