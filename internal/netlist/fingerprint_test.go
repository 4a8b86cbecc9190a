package netlist

import (
	"bytes"
	"strings"
	"testing"
)

// buildRefCircuit constructs a small sequential circuit (an AND-OR datapath
// with a latch feedback loop) using only kinds that round-trip structurally
// through both the Verilog and BLIF writers (And/Or/Not/Buf/Latch/Const).
// Every node is named and the output name matches its driver so neither
// writer needs an alias construct.
func buildRefCircuit() *Netlist {
	n := New("ref")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	w1 := n.AddNamedGate("w1", And, a, b)
	w2 := n.AddNamedGate("w2", Not, c)
	q := n.AddNamedLatch("q", w1)
	y := n.AddNamedGate("y", Or, w1, w2, q)
	n.SetLatchD(q, y)
	cst := n.AddConst(true)
	n.SetName(cst, "k1")
	z := n.AddNamedGate("z", Buf, cst)
	n.MarkOutput("y", y)
	n.MarkOutput("z", z)
	return n
}

// buildRefCircuitPermuted builds the same circuit as buildRefCircuit with a
// different node-creation order and permuted commutative fanins.
func buildRefCircuitPermuted() *Netlist {
	n := New("ref")
	c := n.AddInput("c")
	w2 := n.AddNamedGate("w2", Not, c)
	b := n.AddInput("b")
	a := n.AddInput("a")
	cst := n.AddConst(true)
	n.SetName(cst, "k1")
	z := n.AddNamedGate("z", Buf, cst)
	w1 := n.AddNamedGate("w1", And, b, a) // swapped commutative fanins
	q := n.AddNamedLatch("q", w1)
	y := n.AddNamedGate("y", Or, q, w2, w1)
	n.SetLatchD(q, y)
	n.MarkOutput("y", y)
	n.MarkOutput("z", z)
	return n
}

func TestFingerprintOrderInvariance(t *testing.T) {
	f1 := buildRefCircuit().Fingerprint()
	f2 := buildRefCircuitPermuted().Fingerprint()
	if f1 != f2 {
		t.Errorf("same circuit built in two orders fingerprints differently:\n%s\n%s", f1, f2)
	}
	if len(f1) != 64 || strings.ToLower(f1) != f1 {
		t.Errorf("fingerprint is not lowercase hex sha256: %q", f1)
	}
}

func TestFingerprintStable(t *testing.T) {
	n := buildRefCircuit()
	if a, b := n.Fingerprint(), n.Fingerprint(); a != b {
		t.Errorf("repeated Fingerprint calls differ: %s vs %s", a, b)
	}
}

// TestFingerprintVerilogBLIF is the cross-format determinism check: the
// same netlist serialized to Verilog and to BLIF parses back with very
// different node-creation orders (both readers resolve nets by sorted name
// via DFS, and BLIF decomposes covers), yet the canonical fingerprint must
// agree.
func TestFingerprintVerilogBLIF(t *testing.T) {
	src := buildRefCircuit()

	var v, b bytes.Buffer
	if err := src.WriteVerilog(&v); err != nil {
		t.Fatal(err)
	}
	if err := src.WriteBLIF(&b); err != nil {
		t.Fatal(err)
	}
	fromV, err := ReadVerilog(&v)
	if err != nil {
		t.Fatalf("ReadVerilog: %v", err)
	}
	fromB, err := ReadBLIF(&b)
	if err != nil {
		t.Fatalf("ReadBLIF: %v", err)
	}
	fv, fb := fromV.Fingerprint(), fromB.Fingerprint()
	if fv != fb {
		t.Errorf("Verilog-parsed and BLIF-parsed fingerprints differ:\nverilog: %s\nblif:    %s", fv, fb)
	}
}

// TestFingerprintAllKindsVerilogBLIF extends the cross-format check to every
// gate kind plus an aliased output name. BLIF lowers Nand/Nor/Xor/Xnor to
// cover tables and both formats express the output alias differently, so
// this only holds because ReadBLIF recognizes the canonical covers
// WriteBLIF emits and ReadVerilog materializes alias assigns as Buf nodes.
func TestFingerprintAllKindsVerilogBLIF(t *testing.T) {
	n := New("kinds")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	w1 := n.AddNamedGate("w_and", And, a, b)
	w2 := n.AddNamedGate("w_nand", Nand, a, b, c)
	w3 := n.AddNamedGate("w_or", Or, w1, w2)
	w4 := n.AddNamedGate("w_nor", Nor, a, c)
	w5 := n.AddNamedGate("w_xor", Xor, w3, w4, b)
	w6 := n.AddNamedGate("w_xnor", Xnor, w5, a)
	w7 := n.AddNamedGate("w_not", Not, w6)
	w8 := n.AddNamedGate("w_buf", Buf, w7)
	q := n.AddNamedLatch("q", w8)
	n.SetLatchD(q, w5)
	n.MarkOutput("y", w8) // alias: output name differs from driver name
	n.MarkOutput("q", q)

	var v, bl bytes.Buffer
	if err := n.WriteVerilog(&v); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteBLIF(&bl); err != nil {
		t.Fatal(err)
	}
	fromV, err := ReadVerilog(&v)
	if err != nil {
		t.Fatalf("ReadVerilog: %v", err)
	}
	fromB, err := ReadBLIF(&bl)
	if err != nil {
		t.Fatalf("ReadBLIF: %v", err)
	}
	if fv, fb := fromV.Fingerprint(), fromB.Fingerprint(); fv != fb {
		t.Errorf("cross-format fingerprints differ:\nverilog: %s\nblif:    %s", fv, fb)
	}
	// The BLIF round trip must preserve gate kinds, not lower them.
	want := map[Kind]int{And: 1, Nand: 1, Or: 1, Nor: 1, Xor: 1, Xnor: 1, Not: 1, Buf: 2, Latch: 1}
	got := map[Kind]int{}
	for _, node := range fromB.nodes {
		if node.Kind != Input {
			got[node.Kind]++
		}
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("BLIF round trip: kind %v count = %d, want %d (all: %v)", k, got[k], w, got)
		}
	}
}

// TestFingerprintNetsNamedConstants reads back outputs driven by inputs
// named 0 and 1. Verilog writes them as `assign y = \0 ;`, an escaped net,
// and must not read that as the constant a bare 0 is; both formats then
// give one fingerprint.
func TestFingerprintNetsNamedConstants(t *testing.T) {
	n := New("consts")
	n.MarkOutput("y", n.AddInput("0"))
	n.MarkOutput("z", n.AddInput("1"))
	var v, bl bytes.Buffer
	if err := n.WriteVerilog(&v); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteBLIF(&bl); err != nil {
		t.Fatal(err)
	}
	fromV, err := ReadVerilog(bytes.NewReader(v.Bytes()))
	if err != nil {
		t.Fatalf("ReadVerilog: %v", err)
	}
	fromB, err := ReadBLIF(&bl)
	if err != nil {
		t.Fatalf("ReadBLIF: %v", err)
	}
	for _, out := range fromV.Outputs() {
		if k := fromV.Kind(out.Driver); k != Buf {
			t.Errorf("Verilog output %s reads back as %v, want buf:\n%s", out.Name, k, v.String())
		}
	}
	if fv, fb := fromV.Fingerprint(), fromB.Fingerprint(); fv != fb {
		t.Errorf("cross-format fingerprints differ:\nverilog: %s\nblif:    %s", fv, fb)
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := buildRefCircuit().Fingerprint()

	kind := buildRefCircuit()
	// Rebuild with the And swapped for an Or.
	k2 := New("ref")
	a := k2.AddInput("a")
	b := k2.AddInput("b")
	c := k2.AddInput("c")
	w1 := k2.AddNamedGate("w1", Or, a, b)
	w2 := k2.AddNamedGate("w2", Not, c)
	q := k2.AddNamedLatch("q", w1)
	y := k2.AddNamedGate("y", Or, w1, w2, q)
	k2.SetLatchD(q, y)
	cst := k2.AddConst(true)
	k2.SetName(cst, "k1")
	z := k2.AddNamedGate("z", Buf, cst)
	k2.MarkOutput("y", y)
	k2.MarkOutput("z", z)
	if got := k2.Fingerprint(); got == base {
		t.Error("changing a gate kind did not change the fingerprint")
	}

	renamed := buildRefCircuit()
	renamed.SetName(renamed.FindByName("w1"), "w1x")
	if got := renamed.Fingerprint(); got == base {
		t.Error("renaming an internal node did not change the fingerprint")
	}

	outs := buildRefCircuit()
	outs.MarkOutput("extra", outs.FindByName("w1"))
	if got := outs.Fingerprint(); got == base {
		t.Error("adding an output did not change the fingerprint")
	}
	if kind.Fingerprint() != base {
		t.Error("control rebuild drifted") // guards the test itself
	}
}

// TestFingerprintAnonymousSymmetry: structurally identical anonymous nodes
// land in one refinement class; their arbitrary relative order must not
// leak into the digest.
func TestFingerprintAnonymousSymmetry(t *testing.T) {
	build := func(swap bool) *Netlist {
		n := New("sym")
		a := n.AddInput("a")
		b := n.AddInput("b")
		// Two anonymous, structurally identical dead consts plus live logic.
		n.AddConst(false)
		y := n.AddNamedGate("y", And, a, b)
		n.AddConst(false)
		if swap {
			n.MarkOutput("y", y)
			return n
		}
		n.MarkOutput("y", y)
		return n
	}
	if f1, f2 := build(false).Fingerprint(), build(true).Fingerprint(); f1 != f2 {
		t.Errorf("symmetric anonymous nodes perturb the fingerprint: %s vs %s", f1, f2)
	}
}

func TestFingerprintEmptyAndArticleScale(t *testing.T) {
	if f := New("empty").Fingerprint(); len(f) != 64 {
		t.Errorf("empty netlist fingerprint malformed: %q", f)
	}
	// A latch with an unset D (pre-Validate state) must not panic.
	n := New("unset")
	n.nodes = append(n.nodes, Node{Kind: Latch, Name: "q"})
	n.fanout = append(n.fanout, nil)
	if f := n.Fingerprint(); len(f) != 64 {
		t.Errorf("unset-latch fingerprint malformed: %q", f)
	}
}
