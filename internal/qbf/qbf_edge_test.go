package qbf

import (
	"context"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/netlist"
)

func TestMaxIterAbort(t *testing.T) {
	// With maxIter=1 on an instance needing two refinements, the solver
	// must report Aborted rather than a wrong verdict.
	nl := netlist.New("t")
	a := nl.AddInput("a")
	y1 := nl.AddInput("y1")
	y2 := nl.AddInput("y2")
	na := nl.AddGate(netlist.Not, a)
	out := nl.AddGate(netlist.Or,
		nl.AddGate(netlist.And, y1, a),
		nl.AddGate(netlist.And, y2, na))
	ref := nl.AddGate(netlist.Buf, a)
	res := SolveForallEqualWord(context.Background(), nl, []netlist.ID{out}, []netlist.ID{ref}, []netlist.ID{a}, []netlist.ID{y1, y2}, 1)
	if res.Found {
		t.Error("found with starved iteration budget?")
	}
	if !res.Aborted && res.Iterations < 1 {
		t.Errorf("expected abort or refutation after 1 iter: %+v", res)
	}
}

func TestWordSolverRefutes(t *testing.T) {
	// Word-level: a 4-bit bitwise-and unit cannot match bitwise-or for any
	// side assignment; the word CEGAR must refute (not abort).
	nl := netlist.New("w")
	a := gen.InputWord(nl, "a", 4)
	b := gen.InputWord(nl, "b", 4)
	y := nl.AddInput("y")
	var outs, refs []netlist.ID
	for i := 0; i < 4; i++ {
		// Candidate: (a&b) xor y-gated nothing — y irrelevant dead side input.
		outs = append(outs, nl.AddGate(netlist.And, a[i], b[i]))
		refs = append(refs, nl.AddGate(netlist.Or, a[i], b[i]))
	}
	forall := append(append([]netlist.ID{}, a...), b...)
	res := SolveForallEqualWord(context.Background(), nl, outs, refs, forall, []netlist.ID{y}, 0)
	if res.Found || res.Aborted {
		t.Errorf("and-word vs or-word: %+v", res)
	}
}

func TestWordSolverEmptyAndMismatched(t *testing.T) {
	nl := netlist.New("e")
	a := nl.AddInput("a")
	g := nl.AddGate(netlist.Buf, a)
	if res := SolveForallEqualWord(context.Background(), nl, nil, nil, nil, nil, 0); res.Found {
		t.Error("empty word matched")
	}
	if res := SolveForallEqualWord(context.Background(), nl, []netlist.ID{g}, nil, nil, nil, 0); res.Found {
		t.Error("mismatched word lengths matched")
	}
}

func TestWordSolverWithConstsInCone(t *testing.T) {
	// Cones containing constants exercise the encoder's constant handling in every copy.
	nl := netlist.New("c")
	a := gen.InputWord(nl, "a", 3)
	zero := nl.AddConst(false)
	one := nl.AddConst(true)
	var outs, refs []netlist.ID
	for i := 0; i < 3; i++ {
		outs = append(outs, nl.AddGate(netlist.Or, nl.AddGate(netlist.And, a[i], one), zero))
		refs = append(refs, nl.AddGate(netlist.Buf, a[i]))
	}
	res := SolveForallEqualWord(context.Background(), nl, outs, refs, a, nil, 0)
	if !res.Found {
		t.Errorf("constant-folded identity not proven: %+v", res)
	}
}
