package qbf

import (
	"context"
	"testing"

	"netlistre/internal/netlist"
)

// buildAddSub returns a netlist with a 4-bit add/sub unit (out = a + b when
// mode=0, a - b when mode=1) and a reference 4-bit adder over the same a/b
// inputs. It returns the MSB-side outputs bit by bit for equivalence tests.
func buildAddSub() (nl *netlist.Netlist, outs, refs []netlist.ID, a, b []netlist.ID, mode netlist.ID) {
	nl = netlist.New("addsub")
	const w = 4
	for i := 0; i < w; i++ {
		a = append(a, nl.AddInput("a"+string(rune('0'+i))))
	}
	for i := 0; i < w; i++ {
		b = append(b, nl.AddInput("b"+string(rune('0'+i))))
	}
	mode = nl.AddInput("mode")

	// Candidate: b XOR mode into a ripple adder with carry-in = mode
	// (classic add/sub).
	carry := mode
	for i := 0; i < w; i++ {
		bx := nl.AddGate(netlist.Xor, b[i], mode)
		sum := nl.AddGate(netlist.Xor, a[i], bx, carry)
		outs = append(outs, sum)
		c1 := nl.AddGate(netlist.And, a[i], bx)
		c2 := nl.AddGate(netlist.And, carry, nl.AddGate(netlist.Xor, a[i], bx))
		carry = nl.AddGate(netlist.Or, c1, c2)
	}

	// Reference: plain ripple adder with carry-in 0.
	rc := netlist.ID(nl.AddConst(false))
	for i := 0; i < w; i++ {
		sum := nl.AddGate(netlist.Xor, a[i], b[i], rc)
		refs = append(refs, sum)
		c1 := nl.AddGate(netlist.And, a[i], b[i])
		c2 := nl.AddGate(netlist.And, rc, nl.AddGate(netlist.Xor, a[i], b[i]))
		rc = nl.AddGate(netlist.Or, c1, c2)
	}
	return nl, outs, refs, a, b, mode
}

func TestAddSubMatchesAdderWithModeZero(t *testing.T) {
	nl, outs, refs, a, b, mode := buildAddSub()
	forall := append(append([]netlist.ID{}, a...), b...)
	// Check the full word: every bit pair must agree under one shared Y.
	// Solve per-bit and verify the assignments agree on mode=0.
	for i := range outs {
		res := SolveForallEqualWord(context.Background(), nl, []netlist.ID{outs[i]}, []netlist.ID{refs[i]}, forall, []netlist.ID{mode}, 0)
		if !res.Found {
			t.Fatalf("bit %d: no side-input assignment found (iter=%d aborted=%v)",
				i, res.Iterations, res.Aborted)
		}
		if res.Assignment[mode] {
			t.Errorf("bit %d: synthesized mode=1, want 0 (add mode)", i)
		}
	}
}

func TestAddSubDoesNotMatchXorWord(t *testing.T) {
	nl, outs, _, a, b, mode := buildAddSub()
	// Reference: bitwise xor (differs from add/sub on carries for bit>=1).
	x1 := nl.AddGate(netlist.Xor, a[1], b[1])
	forall := append(append([]netlist.ID{}, a...), b...)
	res := SolveForallEqualWord(context.Background(), nl, []netlist.ID{outs[1]}, []netlist.ID{x1}, forall, []netlist.ID{mode}, 0)
	if res.Found {
		t.Errorf("bit 1 of add/sub claimed equal to xor under mode=%v", res.Assignment[mode])
	}
	if res.Aborted {
		t.Error("solver aborted instead of refuting")
	}
}

func TestMuxSideInputSelection(t *testing.T) {
	// Candidate: out = s ? (a&b) : (a|b). Reference: a&b. Expect s=1.
	nl := netlist.New("t")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	s := nl.AddInput("s")
	and := nl.AddGate(netlist.And, a, b)
	or := nl.AddGate(netlist.Or, a, b)
	ns := nl.AddGate(netlist.Not, s)
	out := nl.AddGate(netlist.Or,
		nl.AddGate(netlist.And, s, and),
		nl.AddGate(netlist.And, ns, or))
	ref := nl.AddGate(netlist.And, a, b)

	res := SolveForallEqualWord(context.Background(), nl, []netlist.ID{out}, []netlist.ID{ref}, []netlist.ID{a, b}, []netlist.ID{s}, 0)
	if !res.Found {
		t.Fatalf("no assignment found: %+v", res)
	}
	if !res.Assignment[s] {
		t.Error("synthesized s=0, want s=1")
	}

	// Against xor there is no valid side assignment.
	refX := nl.AddGate(netlist.Xor, a, b)
	res = SolveForallEqualWord(context.Background(), nl, []netlist.ID{out}, []netlist.ID{refX}, []netlist.ID{a, b}, []netlist.ID{s}, 0)
	if res.Found {
		t.Error("mux matched xor")
	}
}

func TestTwoSideInputs(t *testing.T) {
	// out = (y1 & a) | (y2 & ~a); matching ref=a requires y1=1, y2=0.
	nl := netlist.New("t")
	a := nl.AddInput("a")
	y1 := nl.AddInput("y1")
	y2 := nl.AddInput("y2")
	na := nl.AddGate(netlist.Not, a)
	out := nl.AddGate(netlist.Or,
		nl.AddGate(netlist.And, y1, a),
		nl.AddGate(netlist.And, y2, na))
	ref := nl.AddGate(netlist.Buf, a)
	res := SolveForallEqualWord(context.Background(), nl, []netlist.ID{out}, []netlist.ID{ref}, []netlist.ID{a}, []netlist.ID{y1, y2}, 0)
	if !res.Found {
		t.Fatalf("no assignment: %+v", res)
	}
	if !res.Assignment[y1] || res.Assignment[y2] {
		t.Errorf("assignment = %v, want y1=1 y2=0", res.Assignment)
	}
}

func TestNoExistentials(t *testing.T) {
	// Plain equivalence checking degenerates gracefully with empty Y.
	nl := netlist.New("t")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	f := nl.AddGate(netlist.Nand, a, b)
	g := nl.AddGate(netlist.Not, nl.AddGate(netlist.And, a, b))
	res := SolveForallEqualWord(context.Background(), nl, []netlist.ID{f}, []netlist.ID{g}, []netlist.ID{a, b}, nil, 0)
	if !res.Found {
		t.Error("nand and not-and should match with empty Y")
	}
	h := nl.AddGate(netlist.And, a, b)
	res = SolveForallEqualWord(context.Background(), nl, []netlist.ID{f}, []netlist.ID{h}, []netlist.ID{a, b}, nil, 0)
	if res.Found {
		t.Error("nand matched and")
	}
}
