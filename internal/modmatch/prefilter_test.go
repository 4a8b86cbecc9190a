package modmatch

// Differential tests for the bit-parallel QBF prefilter: matching with the
// prefilter on must produce exactly the modules produced with it off, and
// the prefilter itself must never refute a satisfiable instance.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/qbf"
	"netlistre/internal/words"
)

// moduleKey renders a module deterministically for set comparison.
func moduleKey(m *module.Module) string {
	attrs := make([]string, 0, len(m.Attr))
	for k, v := range m.Attr {
		attrs = append(attrs, k+"="+v)
	}
	sort.Strings(attrs)
	return fmt.Sprintf("%s %v %v", m.Name, m.Elements, attrs)
}

func moduleKeys(ms []*module.Module) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = moduleKey(m)
	}
	return keys
}

// prefilterCircuits builds the matching scenarios the package tests cover —
// ALUs with side inputs, subtractors, bitwise ops, rotates, and
// deliberately unmatched random logic.
func prefilterCircuits() map[string]struct {
	nl *netlist.Netlist
	ws []words.Word
} {
	out := make(map[string]struct {
		nl *netlist.Netlist
		ws []words.Word
	})
	add := func(name string, nl *netlist.Netlist, ws []words.Word) {
		out[name] = struct {
			nl *netlist.Netlist
			ws []words.Word
		}{nl, ws}
	}

	{
		nl := netlist.New("alu")
		a := gen.InputWord(nl, "a", 8)
		b := gen.InputWord(nl, "b", 8)
		mode := nl.AddInput("mode")
		sum, _ := gen.AddSub(nl, a, b, mode)
		add("addsub", nl, mkWords(a, b, sum))
	}
	{
		nl := netlist.New("sub")
		a := gen.InputWord(nl, "a", 6)
		b := gen.InputWord(nl, "b", 6)
		diff, _ := gen.RippleSubtractor(nl, a, b)
		add("sub", nl, mkWords(a, b, gen.Word(diff)))
	}
	{
		nl := netlist.New("bx")
		a := gen.InputWord(nl, "a", 4)
		b := gen.InputWord(nl, "b", 4)
		add("xor", nl, mkWords(a, b, gen.Bitwise(nl, netlist.Xor, a, b)))
	}
	{
		nl := netlist.New("rot")
		a := gen.InputWord(nl, "a", 6)
		add("rotl2", nl, mkWords(a, gen.RotateLeft(nl, a, 2)))
	}
	{
		nl := netlist.New("rand")
		a := gen.InputWord(nl, "a", 4)
		b := gen.InputWord(nl, "b", 4)
		var w gen.Word
		for i := range a {
			j := (i + 1) % 4
			w = append(w, nl.AddGate(netlist.Or,
				nl.AddGate(netlist.And, a[i], b[i]),
				nl.AddGate(netlist.And, a[j], b[i])))
		}
		add("random", nl, mkWords(a, b, w))
	}
	return out
}

// TestPrefilterDifferential: Match with the prefilter enabled must return
// exactly the modules of the oracle run with it disabled.
func TestPrefilterDifferential(t *testing.T) {
	for name, c := range prefilterCircuits() {
		on := Match(context.Background(), c.nl, c.ws, Options{})
		off := Match(context.Background(), c.nl, c.ws, Options{DisablePrefilter: true})
		kOn, kOff := moduleKeys(on), moduleKeys(off)
		if len(kOn) != len(kOff) {
			t.Errorf("%s: %d modules with prefilter, %d without", name, len(kOn), len(kOff))
			continue
		}
		for i := range kOn {
			if kOn[i] != kOff[i] {
				t.Errorf("%s module %d: %q (prefilter) vs %q (oracle)", name, i, kOn[i], kOff[i])
			}
		}
	}
}

// TestPrefilterNeverRefutesSAT: for every candidate and every reference
// instance across the scenario circuits, if the prefilter refutes then the
// QBF solver must agree the instance is unsatisfiable. This checks the
// soundness claim directly at the instance level rather than end to end.
func TestPrefilterNeverRefutesSAT(t *testing.T) {
	for name, c := range prefilterCircuits() {
		for _, cand := range Candidates(c.nl, c.ws, Options{}) {
			region, rmap := extractRegion(c.nl, cand)
			var forall []netlist.ID
			for _, w := range cand.Inputs {
				for _, b := range w.Bits {
					forall = append(forall, rmap[b])
				}
			}
			var exists []netlist.ID
			for _, s := range cand.Side {
				exists = append(exists, rmap[s])
			}
			outs := make([]netlist.ID, len(cand.Out.Bits))
			for i, b := range cand.Out.Bits {
				outs[i] = rmap[b]
			}
			rng := rand.New(rand.NewSource(99))
			for _, ref := range referenceLibrary() {
				if ref.arity != len(cand.Inputs) {
					continue
				}
				var a, b []netlist.ID
				for _, x := range cand.Inputs[0].Bits {
					a = append(a, rmap[x])
				}
				if ref.arity == 2 {
					for _, x := range cand.Inputs[1].Bits {
						b = append(b, rmap[x])
					}
				}
				refOuts := ref.build(region, a, b)
				if !simRefute(region, outs, refOuts, forall, exists, rng) {
					continue
				}
				res := qbf.SolveForallEqualWord(context.Background(), region, outs, refOuts, forall, exists, 0)
				if res.Found {
					t.Errorf("%s: prefilter refuted %s but QBF finds a side assignment", name, ref.name)
				}
			}
		}
	}
}
