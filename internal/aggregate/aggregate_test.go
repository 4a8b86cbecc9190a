package aggregate

import (
	"testing"

	"netlistre/internal/bitslice"
	"netlistre/internal/gen"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
)

func analyze(nl *netlist.Netlist, keepUnknown bool) *bitslice.Result {
	return bitslice.Find(nl, bitslice.Options{KeepUnknown: keepUnknown})
}

func TestMuxAggregation(t *testing.T) {
	nl := netlist.New("mux")
	sel := nl.AddInput("sel")
	d0 := gen.InputWord(nl, "a", 8)
	d1 := gen.InputWord(nl, "b", 8)
	out := gen.Mux2Word(nl, sel, d0, d1)
	mods := CommonSignal(nl, analyze(nl, false))

	var mux *module.Module
	for _, m := range mods {
		if m.Type == module.Mux && m.Width == 8 {
			mux = m
		}
	}
	if mux == nil {
		t.Fatalf("no 8-bit mux aggregated; modules: %v", names(mods))
	}
	if got := mux.Port("sel"); len(got) != 1 || got[0] != sel {
		t.Errorf("sel port = %v", got)
	}
	if got := mux.Port("out"); len(got) != 8 {
		t.Errorf("out port = %v", got)
	} else {
		for i, o := range got {
			if o != out[i] {
				t.Errorf("out[%d] = %d, want %d", i, o, out[i])
			}
		}
	}
	if !mux.Sliceable() || len(mux.Slices) != 8 {
		t.Error("mux module should be sliceable into 8 slices")
	}
	// The shared select inverter must be in the shared bucket.
	if shared := mux.SharedElements(); len(shared) != 1 {
		t.Errorf("shared elements = %v, want exactly the sel inverter", shared)
	}
}

func TestTwoMuxesSeparateSelects(t *testing.T) {
	nl := netlist.New("mux2")
	s1 := nl.AddInput("s1")
	s2 := nl.AddInput("s2")
	a := gen.InputWord(nl, "a", 4)
	b := gen.InputWord(nl, "b", 4)
	c := gen.InputWord(nl, "c", 4)
	gen.Mux2Word(nl, s1, a, b)
	gen.Mux2Word(nl, s2, b, c)
	mods := CommonSignal(nl, analyze(nl, false))
	count := 0
	for _, m := range mods {
		if m.Type == module.Mux && m.Width == 4 {
			count++
		}
	}
	if count != 2 {
		t.Errorf("found %d 4-bit muxes, want 2 (modules: %v)", count, names(mods))
	}
}

func TestAdderAggregation(t *testing.T) {
	nl := netlist.New("add")
	a := gen.InputWord(nl, "a", 8)
	b := gen.InputWord(nl, "b", 8)
	sum, _ := gen.RippleAdder(nl, a, b, netlist.Nil)
	mods := PropagatedSignal(nl, analyze(nl, false))

	var adder *module.Module
	for _, m := range mods {
		if m.Type == module.Adder {
			if adder == nil || m.Width > adder.Width {
				adder = m
			}
		}
	}
	if adder == nil {
		t.Fatalf("no adder aggregated; modules: %v", names(mods))
	}
	if adder.Width != 8 {
		t.Errorf("adder width = %d, want 8", adder.Width)
	}
	// The sum outputs must be discovered in bit order.
	sums := adder.Port("sum")
	if len(sums) != 8 {
		t.Fatalf("sum port has %d bits, want 8 (%v)", len(sums), sums)
	}
	for i := range sums {
		if sums[i] != sum[i] {
			t.Errorf("sum[%d] = %d, want %d", i, sums[i], sum[i])
		}
	}
	// Operand words must be bits of a and b (in either column).
	aw, bw := adder.Port("a"), adder.Port("b")
	if len(aw) != 8 || len(bw) != 8 {
		t.Fatalf("operand widths %d/%d, want 8/8", len(aw), len(bw))
	}
	for i := 0; i < 8; i++ {
		ok := (aw[i] == a[i] && bw[i] == b[i]) || (aw[i] == b[i] && bw[i] == a[i])
		if !ok {
			t.Errorf("bit %d operands (%d,%d) not {a%d,b%d}", i, aw[i], bw[i], i, i)
		}
	}
}

func TestSubtractorAggregation(t *testing.T) {
	nl := netlist.New("sub")
	a := gen.InputWord(nl, "a", 6)
	b := gen.InputWord(nl, "b", 6)
	gen.RippleSubtractor(nl, a, b)
	mods := PropagatedSignal(nl, analyze(nl, false))
	var sub *module.Module
	for _, m := range mods {
		if m.Type == module.Subtractor {
			if sub == nil || m.Width > sub.Width {
				sub = m
			}
		}
	}
	if sub == nil {
		t.Fatalf("no subtractor aggregated; modules: %v", names(mods))
	}
	if sub.Width != 6 {
		t.Errorf("subtractor width = %d, want 6", sub.Width)
	}
}

func TestParityTreeAggregation(t *testing.T) {
	nl := netlist.New("par")
	w := gen.InputWord(nl, "w", 8)
	root := gen.ParityTree(nl, w)
	mods := PropagatedSignal(nl, analyze(nl, false))
	var tree *module.Module
	for _, m := range mods {
		if m.Type == module.ParityTree {
			tree = m
		}
	}
	if tree == nil {
		t.Fatalf("no parity tree; modules: %v", names(mods))
	}
	if got := tree.Port("out"); len(got) != 1 || got[0] != root {
		t.Errorf("tree out = %v, want %d", got, root)
	}
	if tree.Width != 8 {
		t.Errorf("tree width = %d, want 8 leaves", tree.Width)
	}
}

func TestAdderDoesNotCreateParityTree(t *testing.T) {
	nl := netlist.New("add")
	a := gen.InputWord(nl, "a", 8)
	b := gen.InputWord(nl, "b", 8)
	gen.RippleAdder(nl, a, b, netlist.Nil)
	mods := PropagatedSignal(nl, analyze(nl, false))
	for _, m := range mods {
		if m.Type == module.ParityTree {
			t.Errorf("adder produced a spurious parity tree of width %d", m.Width)
		}
	}
}

func TestUnknownCandidateAggregation(t *testing.T) {
	// Replicate a non-library bitslice 6 times sharing a control signal:
	// f_i = (ctl & a_i) | (~ctl & a_i & b_i)   (a 3-input non-library fn).
	nl := netlist.New("u")
	ctl := nl.AddInput("ctl")
	a := gen.InputWord(nl, "a", 6)
	b := gen.InputWord(nl, "b", 6)
	nctl := nl.AddGate(netlist.Not, ctl)
	for i := 0; i < 6; i++ {
		nl.AddGate(netlist.Or,
			nl.AddGate(netlist.And, ctl, a[i]),
			nl.AddGate(netlist.And, nctl, a[i], b[i]))
	}
	mods := CommonSignal(nl, analyze(nl, true))
	found := false
	for _, m := range mods {
		if m.Type == module.Candidate && m.Width >= 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("no candidate module aggregated; modules: %v", names(mods))
	}
}

func names(mods []*module.Module) []string {
	var out []string
	for _, m := range mods {
		out = append(out, m.Name)
	}
	return out
}
