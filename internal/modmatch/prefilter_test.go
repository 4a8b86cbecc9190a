package modmatch

// Differential tests for the bit-parallel QBF prefilter: matching with the
// prefilter on must produce exactly the modules produced with it off, the
// prefilter itself must never refute a satisfiable instance, and its
// cached references must compute what the QBF instances build.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"netlistre/internal/bitsim"
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
		off := Match(context.Background(), c.nl, c.ws, Options{disablePrefilter: true})
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
// instance (each operand order included) across the scenario circuits, if
// the refuter refutes then the QBF solver must agree the instance is
// unsatisfiable. This checks the soundness claim directly at the instance
// level rather than end to end.
func TestPrefilterNeverRefutesSAT(t *testing.T) {
	refs := refCache{}
	var cone bitsim.Cone
	refuted := 0
	for name, c := range prefilterCircuits() {
		for _, cand := range Candidates(c.nl, c.ws, Options{}) {
			// The refuter runs on the netlist, the QBF instances on the
			// extracted region, as in matchCandidate.
			sim := newCandidateSim(c.nl, cand, rand.New(rand.NewPCG(99, 0)), &cone)
			rg := extractRegion(c.nl, cand)
			width := len(cand.Out.Bits)
			for op, ref := range library {
				if ref.arity != len(cand.Inputs) {
					continue
				}
				orders := [][2]int{{0, 1}, {1, 0}}
				if ref.arity == 1 {
					orders = [][2]int{{0, 0}}
				}
				for _, ord := range orders {
					if !sim.refutes(refs.get(op, width), ord) {
						continue
					}
					refuted++
					var b []netlist.ID
					if ref.arity == 2 {
						b = rg.inputs[ord[1]]
					}
					refOuts := ref.build(rg.nl, rg.inputs[ord[0]], b)
					res := qbf.SolveForallEqualWord(context.Background(), rg.nl, rg.outs, refOuts, rg.forall, rg.exists, 0)
					if res.Found {
						t.Errorf("%s: refuter refuted %s%v but QBF finds a side assignment", name, ref.name, ord)
					}
				}
			}
		}
	}
	if refuted == 0 {
		t.Fatal("the refuter refuted no instance")
	}
}

// TestCachedReferenceMatchesRegion: a cached reference, evaluated by
// forcing its operands, computes what the same operation built into a
// region over other inputs computes, for every library operation, widths
// 4 to 16 and random operands.
func TestCachedReferenceMatchesRegion(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	refs := refCache{}
	for width := minWidth; width <= maxWidth; width++ {
		for op, ref := range library {
			region := netlist.New("region")
			region.AddInput("side") // offsets the operand IDs
			var a, b []netlist.ID
			for i := 0; i < width; i++ {
				a = append(a, region.AddInput(fmt.Sprintf("w0_%d", i)))
			}
			if ref.arity == 2 {
				for i := 0; i < width; i++ {
					b = append(b, region.AddInput(fmt.Sprintf("w1_%d", i)))
				}
			}
			want := bitsim.CompileCone(region, ref.build(region, a, b), nil)
			got := refs.get(op, width)
			if refs.get(op, width) != got {
				t.Fatalf("%s/%d: cache returned a second reference", ref.name, width)
			}
			if len(got.a) != len(a) || len(got.b) != len(b) {
				t.Fatalf("%s/%d: operands %d+%d, want %d+%d", ref.name, width, len(got.a), len(got.b), len(a), len(b))
			}
			for round := 0; round < 4; round++ {
				for i := range a {
					x := rng.Uint64()
					want.Force(a[i], bitsim.Known(x))
					got.cone.Force(got.a[i], bitsim.Known(x))
				}
				for i := range b {
					x := rng.Uint64()
					want.Force(b[i], bitsim.Known(x))
					got.cone.Force(got.b[i], bitsim.Known(x))
				}
				w, g := want.Eval(), got.cone.Eval()
				if !slices.Equal(w, g) {
					t.Fatalf("%s/%d round %d: cached reference %v, region %v", ref.name, width, round, g, w)
				}
			}
		}
	}
}
