package netlist

import (
	"bytes"
	"testing"
)

// sopEval computes a mask's function as a sum of products: the OR of the
// minterms the mask selects, each the AND of its literals. It is plain
// Boolean code sharing nothing with EvalWord, so agreement between the two
// is a real cross-check, not a tautology.
func sopEval(mask uint64, in []bool) bool {
	for row := 0; row < 1<<uint(len(in)); row++ {
		if mask>>uint(row)&1 == 0 {
			continue
		}
		minterm := true
		for i, v := range in {
			minterm = minterm && v == (row>>uint(i)&1 == 1)
		}
		if minterm {
			return true
		}
	}
	return false
}

// TestLutEvalExhaustive4 checks the word kernel's LUT evaluation against
// the sum-of-products reference for every 4-input mask and every input row
// (2^16 functions x 16 rows, the full 4-variable Boolean space), with each
// lane of one EvalWord call holding a different row.
func TestLutEvalExhaustive4(t *testing.T) {
	var words [4]uint64
	for lane := 0; lane < 64; lane++ {
		for i := range words {
			words[i] |= uint64(lane>>uint(i)&1) << uint(lane)
		}
	}
	in := make([]bool, 4)
	for mask := 0; mask < 1<<16; mask++ {
		got := EvalWord(Lut, uint64(mask), words[:])
		for lane := 0; lane < 64; lane++ {
			for i := range in {
				in[i] = words[i]>>uint(lane)&1 == 1
			}
			want := sopEval(uint64(mask), in)
			if got>>uint(lane)&1 == 1 != want {
				t.Fatalf("mask %#04x lane %d: EvalWord=%v, SOP reference=%v",
					mask, lane, !want, want)
			}
		}
	}
}

// TestLutNetlistEvalAllMasks3 drives Netlist.Eval's Lut path against the
// primitive-gate path: one netlist holding, for each of the 256 3-input
// masks, both a Lut cell and its minterm AND-OR gate decomposition. All 8
// input rows must agree column-for-column.
func TestLutNetlistEvalAllMasks3(t *testing.T) {
	nl := New("masks3")
	var in [3]ID
	for i := range in {
		in[i] = nl.AddInput(string(rune('a' + i)))
	}
	inv := [3]ID{
		nl.AddGate(Not, in[0]), nl.AddGate(Not, in[1]), nl.AddGate(Not, in[2]),
	}
	var luts, gates [256]ID
	for mask := 0; mask < 256; mask++ {
		luts[mask] = nl.AddLut(uint64(mask), in[0], in[1], in[2])
		var minterms []ID
		for row := 0; row < 8; row++ {
			if mask>>uint(row)&1 == 0 {
				continue
			}
			lits := make([]ID, 3)
			for i := 0; i < 3; i++ {
				if row>>uint(i)&1 == 1 {
					lits[i] = in[i]
				} else {
					lits[i] = inv[i]
				}
			}
			minterms = append(minterms, nl.AddGate(And, lits...))
		}
		switch len(minterms) {
		case 0:
			gates[mask] = nl.AddConst(false)
		case 1:
			gates[mask] = nl.AddGate(Buf, minterms[0])
		default:
			gates[mask] = nl.AddGate(Or, minterms...)
		}
	}
	for row := 0; row < 8; row++ {
		boundary := map[ID]bool{}
		for i := range in {
			boundary[in[i]] = row>>uint(i)&1 == 1
		}
		vals := nl.Eval(boundary)
		for mask := 0; mask < 256; mask++ {
			if vals[luts[mask]] != vals[gates[mask]] {
				t.Fatalf("mask %#02x row %d: Lut=%v, gate SOP=%v",
					mask, row, vals[luts[mask]], vals[gates[mask]])
			}
		}
	}
}

// buildLutCircuit assembles a small mixed LUT/gate sequential design with
// FPGA-flavoured net names that need backslash escaping in Verilog.
func buildLutCircuit(name string) *Netlist {
	n := New(name)
	a := n.AddInput("a")
	b := n.AddInput("n$7") // escaped-identifier input
	c := n.AddInput("c")
	l1 := n.AddNamedLut("SLICE_X0Y1/lut4.out", 0xcafe, a, b, c, n.AddConst(true))
	l2 := n.AddNamedLut("module", 0x6, l1, a) // keyword net name
	inv := n.AddNamedLut("inv1", 0x1, l2)
	g := n.AddNamedGate("g1", Xor, l1, inv)
	q := n.AddNamedLatch("q", g)
	wide := n.AddLut(0x96969696969696e8, l1, l2, inv, g, q, a)
	n.SetLatchD(q, wide)
	n.MarkOutput("y", wide)
	n.MarkOutput("p", l2)
	return n
}

// buildLutCircuitPermuted builds the same circuit (same names) with a
// different node-creation order, so fingerprints must agree.
func buildLutCircuitPermuted(name string) *Netlist {
	n := New(name)
	c := n.AddInput("c")
	a := n.AddInput("a")
	k1 := n.AddConst(true)
	b := n.AddInput("n$7")
	l1 := n.AddNamedLut("SLICE_X0Y1/lut4.out", 0xcafe, a, b, c, k1)
	l2 := n.AddNamedLut("module", 0x6, l1, a)
	inv := n.AddNamedLut("inv1", 0x1, l2)
	g := n.AddNamedGate("g1", Xor, l1, inv)
	q := n.AddNamedLatch("q", g)
	wide := n.AddLut(0x96969696969696e8, l1, l2, inv, g, q, a)
	n.SetLatchD(q, wide)
	n.MarkOutput("y", wide)
	n.MarkOutput("p", l2)
	return n
}

// TestLutFingerprintReorder: the canonical fingerprint must not move under
// topological reorder (named or fully anonymous nodes), and must move when
// a single LUT mask changes.
func TestLutFingerprintReorder(t *testing.T) {
	f1 := buildLutCircuit("lc").Fingerprint()
	f2 := buildLutCircuitPermuted("lc").Fingerprint()
	if f1 != f2 {
		t.Errorf("reorder moved the fingerprint:\n%s\n%s", f1, f2)
	}

	// Anonymous variant: all internal structure unnamed, two build orders.
	anon := func(swap bool) string {
		n := New("anon")
		a := n.AddInput("a")
		b := n.AddInput("b")
		var x, y ID
		if swap {
			y = n.AddLut(0x8, a, b)
			x = n.AddLut(0x6, a, b)
		} else {
			x = n.AddLut(0x6, a, b)
			y = n.AddLut(0x8, a, b)
		}
		n.MarkOutput("o", n.AddLut(0xe, x, y))
		return n.Fingerprint()
	}
	if anon(false) != anon(true) {
		t.Error("anonymous LUT reorder moved the fingerprint")
	}

	tweaked := buildLutCircuit("lc")
	for id := ID(0); int(id) < tweaked.Len(); id++ {
		if tweaked.Kind(id) == Lut && tweaked.Node(id).Mask == 0xcafe {
			tweaked.Node(id).Mask = 0xcaff
		}
	}
	if tweaked.Fingerprint() == f1 {
		t.Error("changing a LUT mask did not move the fingerprint")
	}
}

// TestLutWriteReadByteStable: after one stabilizing round trip (a write
// can replace an output alias with an explicit Buf), write-read-write must
// be byte-identical in both formats, with LUT INIT parameters and escaped
// FPGA-style cell names surviving verbatim. The stabilized netlists must
// also agree on the canonical fingerprint cross-format.
func TestLutWriteReadByteStable(t *testing.T) {
	src := buildLutCircuit("lutstable")

	type codec struct {
		name  string
		write func(*Netlist, *bytes.Buffer) error
		read  func([]byte) (*Netlist, error)
	}
	codecs := []codec{
		{"verilog",
			func(n *Netlist, b *bytes.Buffer) error { return n.WriteVerilog(b) },
			func(p []byte) (*Netlist, error) { return ReadVerilog(bytes.NewReader(p)) }},
		{"blif",
			func(n *Netlist, b *bytes.Buffer) error { return n.WriteBLIF(b) },
			func(p []byte) (*Netlist, error) { return ReadBLIF(bytes.NewReader(p)) }},
	}
	var fps []string
	for _, c := range codecs {
		// Stabilize: the first write may turn `output p` driven by a net
		// named "module" into an alias construct the reader materializes
		// as a Buf node. From the second write on, bytes must be fixed.
		var w1 bytes.Buffer
		if err := c.write(src, &w1); err != nil {
			t.Fatalf("%s: first write: %v", c.name, err)
		}
		stable, err := c.read(w1.Bytes())
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", c.name, err, w1.String())
		}
		if err := stable.Check(); err != nil {
			t.Fatalf("%s: reparsed netlist invalid: %v", c.name, err)
		}
		var w2 bytes.Buffer
		if err := c.write(stable, &w2); err != nil {
			t.Fatalf("%s: second write: %v", c.name, err)
		}
		again, err := c.read(w2.Bytes())
		if err != nil {
			t.Fatalf("%s: second reparse: %v\n%s", c.name, err, w2.String())
		}
		var w3 bytes.Buffer
		if err := c.write(again, &w3); err != nil {
			t.Fatalf("%s: third write: %v", c.name, err)
		}
		if !bytes.Equal(w2.Bytes(), w3.Bytes()) {
			t.Errorf("%s: stabilized write-read-write is not byte-stable:\n--- second\n%s\n--- third\n%s",
				c.name, w2.String(), w3.String())
		}
		if fp, fp2 := stable.Fingerprint(), again.Fingerprint(); fp != fp2 {
			t.Errorf("%s: stabilized reparse moved the fingerprint:\n%s\n%s",
				c.name, fp, fp2)
		}
		if c.name == "verilog" { // BLIF encodes masks as cover rows, not hex
			for _, want := range []string{"cafe", "96969696969696e8"} {
				if !bytes.Contains(w2.Bytes(), []byte(want)) {
					t.Errorf("%s: stabilized output lost LUT INIT %s:\n%s", c.name, want, w2.String())
				}
			}
		}
		fps = append(fps, stable.Fingerprint())
	}
	if fps[0] != fps[1] {
		t.Errorf("cross-format fingerprints differ:\nverilog: %s\nblif:    %s", fps[0], fps[1])
	}
}

// TestReadBLIFLutsOption: with BLIFOptions.Luts, foreign cover tables (no
// '# lut' markers) rebuild as native LUT cells, except the single-cube
// alias cover which stays a Buf.
func TestReadBLIFLutsOption(t *testing.T) {
	src := `
.model foreign
.inputs a b c
.outputs y z
.names a b c w
1-1 1
01- 1
.names w z
1 1
.names w a y
10 1
.end
`
	nl, err := ReadBLIFOpts(bytes.NewReader([]byte(src)), BLIFOptions{Luts: true})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Kind]int{}
	for id := ID(0); int(id) < nl.Len(); id++ {
		counts[nl.Kind(id)]++
	}
	if counts[Lut] != 2 {
		t.Errorf("want 2 native LUTs (w, y), got %d (%v)", counts[Lut], counts)
	}
	if counts[Buf] != 1 {
		t.Errorf("want the alias cover to stay a Buf, got %d (%v)", counts[Buf], counts)
	}
	// Same text without the option decomposes to primitive gates only.
	plain, err := ReadBLIF(bytes.NewReader([]byte(src)))
	if err != nil {
		t.Fatal(err)
	}
	for id := ID(0); int(id) < plain.Len(); id++ {
		if plain.Kind(id) == Lut {
			t.Fatalf("default ReadBLIF built a Lut from an unmarked cover")
		}
	}
}
