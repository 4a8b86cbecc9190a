package netlist

// Fuzz coverage for the two parsers: malformed input must surface as an
// error, never a panic, and an accepted netlist must satisfy its own
// structural invariants (Check) — the rest of the portfolio assumes them.
// Each input is also read by the previous reader (the oracle), and both
// must reject it or build the same netlist. The readers reject two kinds
// of input the oracles accepted: a net with two drivers (the oracles kept
// one of them), and a literal that does not fit 64 bits (the oracle's
// overflow test missed some).

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// oracleReadBLIFRecover runs the BLIF oracle, turning its panic into an
// error: it indexed the fields of a continuation that joined to a blank
// line, which the reader skips.
func oracleReadBLIFRecover(src string, opt BLIFOptions) (nl *Netlist, err error) {
	defer func() {
		if r := recover(); r != nil {
			nl, err = nil, errOraclePanic
		}
	}()
	return oracleReadBLIF(strings.NewReader(src), opt)
}

var errOraclePanic = errors.New("oracle panicked")

// sameAsOracle fails t unless the reader's result (nl, err) matches the
// oracle's (want, werr) as the file comment describes.
func sameAsOracle(t *testing.T, src string, nl *Netlist, err error, want *Netlist, werr error) {
	t.Helper()
	switch {
	case err != nil && werr != nil:
		return
	case errors.Is(werr, bufio.ErrTooLong) || werr == errOraclePanic:
		return // the oracle's line limit and panic; the reader has neither
	case err != nil:
		if errors.Is(err, errDrivenTwice) || errors.Is(err, errOverflow) {
			return
		}
		t.Fatalf("reader rejects what the oracle accepts: %v\ninput:\n%q", err, src)
	case werr != nil:
		t.Fatalf("reader accepts what the oracle rejects (%v)\ninput:\n%q", werr, src)
	}
	if d := netlistDiff(nl, want); d != "" {
		t.Fatalf("reader and oracle differ: %s\ninput:\n%q", d, src)
	}
}

// netlistDiff describes the first difference between two netlists: name,
// node count, a node's kind, name, fanins or mask by ID, the outputs, or
// the fingerprint. It returns "" for identical netlists.
func netlistDiff(got, want *Netlist) string {
	if got.Name != want.Name {
		return fmt.Sprintf("name %q, want %q", got.Name, want.Name)
	}
	if got.Len() != want.Len() {
		return fmt.Sprintf("%d nodes, want %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		g, w := got.Node(ID(i)), want.Node(ID(i))
		if g.Kind != w.Kind || g.Name != w.Name || g.Mask != w.Mask || !slices.Equal(g.Fanin, w.Fanin) {
			return fmt.Sprintf("node %d is %v %q %v %#x, want %v %q %v %#x",
				i, g.Kind, g.Name, g.Fanin, g.Mask, w.Kind, w.Name, w.Fanin, w.Mask)
		}
	}
	if !slices.Equal(got.Outputs(), want.Outputs()) {
		return fmt.Sprintf("outputs %v, want %v", got.Outputs(), want.Outputs())
	}
	if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
		return fmt.Sprintf("fingerprint %s, want %s", g, w)
	}
	return ""
}

// verilogSeeds mixes valid netlists (including writer round-trip output)
// with the known malformed shapes from the parser tests.
func verilogSeeds(f *testing.F) {
	n, _, _, _ := buildFullAdder()
	var buf bytes.Buffer
	if err := n.WriteVerilog(&buf); err != nil {
		f.Fatal(err)
	}
	var lutBuf bytes.Buffer
	if err := buildLutCircuit("fuzzlut").WriteVerilog(&lutBuf); err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		buf.String(),
		lutBuf.String(),
		"module m (a, y);\n input a;\n output y;\n not g0 (y, a);\nendmodule\n",
		"// comment\nmodule m (a, b, y);\ninput a; input b;\noutput y;\nand g (y, a, b);\nendmodule",
		"module m (a); input a; xor g (a); endmodule",
		"module m (a, y); input a; output y; endmodule",
		"module m (y); output y; and g (y, z, z); endmodule",
		"module m (a); input a; frob g (x, a); endmodule",
		"module m (a, y); input a; output y; not g1 (y, y); endmodule",
		"module",
		"",
		"module m (a, y); input a; output y; not g1 (y, a); not g1 (y, a); endmodule",
		"module m (a, b, y);\n input a, b;\n output y;\n LUT2 #(.INIT(4'h6)) g0 (.O(y), .I0(a), .I1(b));\nendmodule\n",
		"module m (a, y); input a; output y; LUT1 #(.INIT(2'h1)) g0 (.O(y), .I0(a), .I1(a)); endmodule",
		"module m (a, y); input a; output y; LUT2 #(.INIT(4'hx)) g0 (.O(y), .I0(a), .I1(a)); endmodule",
		"module m (a, y); input a; output y; LUT9 #(.INIT(9'h0)) g0 (.O(y), .I0(a)); endmodule",
		// CRLF line ends, a comment glued to ';', several statements on
		// one line.
		"module m (a, b, y);\r\n input a, b;\r\n output y;\r\n wire w;// w\r\n and g0 (w, a, b);// and\r\n not g1 (y, w);\r\nendmodule\r\n",
		"module m (a, b, y); input a, b; output y; wire w; nand g0 (w, a, b); buf g1 (y, w); endmodule",
		// Escaped identifiers before ',' and ')', and one that swallows
		// the comma after it.
		"module \\m$1 (\\a[0] , \\b.c , y); input \\a[0] ; input \\b.c ; output y; or g0 (y, \\a[0] , \\b.c ); endmodule",
		"module m (a, y); input \\a, b; output y; buf g0 (y, b); endmodule",
		// Invalid UTF-8: each bad byte reads as U+FFFD, so \xff and \xfe
		// name one net.
		"module m (y); input \xff; output y; buf g0 (y, \xfe); endmodule",
		// LUT ports out of order.
		"module m (a, b, y); input a, b; output y; LUT2 #(.INIT(4'h6)) g0 (.I1(b), .O(y), .I0(a)); endmodule",
		// Two drivers on one net.
		"module m (a, b, y); input a, b; output y; and g0 (y, a, b); assign y = a; endmodule",
		"module m (a, y); input a; output y; assign y = 1'b0; assign y = a; endmodule",
		"module m (a, y); input a; output y; dff r0 (y, a); assign y = a; endmodule",
		// A literal beyond 64 bits.
		"module m (a, y); input a; output y; LUT1 #(.INIT(2'h1ffffffffffffffff)) g0 (.O(y), .I0(a)); endmodule",
	}
	for _, s := range seeds {
		f.Add(s)
	}
}

func FuzzReadVerilog(f *testing.F) {
	verilogSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		nl, err := ReadVerilog(strings.NewReader(src))
		want, werr := oracleReadVerilog(strings.NewReader(src))
		sameAsOracle(t, src, nl, err, want, werr)
		if err != nil {
			return // rejecting malformed input is the contract
		}
		if nl == nil {
			t.Fatal("nil netlist with nil error")
		}
		if cerr := nl.Check(); cerr != nil {
			t.Fatalf("parser accepted a netlist that fails Check: %v\ninput:\n%s", cerr, src)
		}
	})
}

func FuzzReadBLIF(f *testing.F) {
	n, _, _, _ := buildFullAdder()
	var buf bytes.Buffer
	if err := n.WriteBLIF(&buf); err != nil {
		f.Fatal(err)
	}
	var lutBuf bytes.Buffer
	if err := buildLutCircuit("fuzzlut").WriteBLIF(&lutBuf); err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		buf.String(),
		lutBuf.String(),
		".model demo\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n",
		".model lut\n.inputs a b\n.outputs y\n.names a b y # lut\n10 1\n01 1\n.end\n",
		".model lut\n.inputs a b c d e f g\n.outputs y\n.names a b c d e f g y # lut\n1111111 1\n.end\n",
		".model lut\n.inputs a\n.outputs y\n.names a y # lut\n1- 1\n.end\n",
		".model lut\n.inputs a b\n.outputs y\n.names a b y # lut\n11 0\n.end\n",
		".model l\n.inputs d\n.outputs q\n.latch d q re clk 0\n.end\n",
		".model m\n.inputs a\n.outputs y\n.names a y\n11 1\n.end",
		".model m\n.inputs a\n.outputs y\n.end",
		".model m\n.inputs a\n.outputs y\n.gate foo a y\n.end",
		".model m\n.inputs a\n.outputs y\n.names y y\n1 1\n.end",
		".names a y",
		"",
		// Continuation lines, the last one carrying text after '#'.
		".model m\n.inputs a \\\n b\n.outputs y\n.names a \\\nb y\n11 1\n.end\n",
		".model m\n.inputs a b\n.outputs y\n.names a \\\nb y # lut\n11 1\n.end\n",
		".model m\n.inputs a\n.outputs y\n.names a y \\",
		// "# lut" markers, spaced and not.
		".model m\n.inputs a\n.outputs y\n.names a y #lut\n1 1\n.end\n",
		".model m\n.inputs a b\n.outputs y\n.names a b y #  lut  \n01 1\n.end\n",
		// CRLF line ends.
		".model m\r\n.inputs a b\r\n.outputs y\r\n.names a b y\r\n10 1\r\n01 1\r\n.end\r\n",
		// Two drivers on one net.
		".model m\n.inputs a\n.outputs a\n.names a\n1\n.end\n",
		".model m\n.inputs d\n.outputs q\n.latch d q re clk 0\n.names d q\n1 1\n.end\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Both reader modes must uphold the no-panic / Check contract; the
		// Luts option changes cover interpretation, not acceptance rules.
		for _, opt := range []BLIFOptions{{}, {Luts: true}} {
			nl, err := ReadBLIFOpts(strings.NewReader(src), opt)
			want, werr := oracleReadBLIFRecover(src, opt)
			sameAsOracle(t, src, nl, err, want, werr)
			if err != nil {
				continue
			}
			if nl == nil {
				t.Fatal("nil netlist with nil error")
			}
			if cerr := nl.Check(); cerr != nil {
				t.Fatalf("parser (luts=%v) accepted a netlist that fails Check: %v\ninput:\n%s",
					opt.Luts, cerr, src)
			}
		}
	})
}

// diffCase is a golden netlist described by fuzz bytes, and the edits
// that turn it into a suspect. The layout: data[0] picks 1–4 inputs and
// data[1] 1–16 node records of six bytes (kind, three fanin choices, LUT
// mask, name); then a count byte picks 1–4 outputs, each one byte choosing
// its driver; what is left are three-byte edits (operation, two
// arguments). A fanin choice is taken modulo the nodes built so far, except
// that a latch whose kind byte has its top bit set reads any node, so
// latches can close feedback loops. The top bit gives a multi-input gate a
// third fanin, and the kind byte's high nibble picks a LUT's arity.
type diffCase struct {
	inputs  int
	recs    []diffRec
	outs    []int
	dropOut []bool
}

// diffRec is one node record with the edits applied to it: spliceKind,
// when not Const0, inserts a gate of that kind reading the node and input
// spliceIn, which takes the node's place in every later fanin and output.
// A bypassed gate is left out and its first fanin takes its place.
type diffRec struct {
	kind       Kind
	fanin      []int
	feedback   bool
	mask       uint64
	name       string
	spliceKind Kind
	spliceIn   int
	bypass     bool
}

var (
	diffKinds = []Kind{And, Or, Nand, Nor, Xor, Xnor, Not, Buf, Latch, Lut, Const0, Const1}
	diffMulti = []Kind{And, Or, Nand, Nor, Xor, Xnor}
	diffNames = []string{"w0", "w1", "w2", "w3", "n4", "n5", "n6", "n7"}
)

// parseDiffCase reads a case from data and returns it with its edit bytes;
// ok is false when data is too short to hold the case.
func parseDiffCase(data []byte) (c *diffCase, edits []byte, ok bool) {
	if len(data) < 2 {
		return nil, nil, false
	}
	c = &diffCase{inputs: 1 + int(data[0])%4}
	nrec := 1 + int(data[1])%16
	data = data[2:]
	if len(data) < 6*nrec+1 {
		return nil, nil, false
	}
	for i := 0; i < nrec; i++ {
		b := data[6*i : 6*i+6]
		r := diffRec{kind: diffKinds[int(b[0]&0x7f)%len(diffKinds)]}
		built := c.inputs + i
		switch k := r.kind; {
		case k == Const0 || k == Const1:
		case k == Latch && b[0]&0x80 != 0:
			r.fanin, r.feedback = []int{int(b[1])}, true
		case k == Not || k == Buf || k == Latch:
			r.fanin = []int{int(b[1]) % built}
		case k == Lut:
			arity := 1 + int(b[0]>>4)%3
			r.fanin = []int{int(b[1]) % built, int(b[2]) % built, int(b[3]) % built}[:arity]
			r.mask = uint64(b[4]) & (1<<(1<<arity) - 1)
		default:
			r.fanin = []int{int(b[1]) % built, int(b[2]) % built}
			if b[0]&0x80 != 0 {
				r.fanin = append(r.fanin, int(b[3])%built)
			}
		}
		if int(b[5]) < len(diffNames) {
			r.name = diffNames[b[5]]
		}
		c.recs = append(c.recs, r)
	}
	data = data[6*nrec:]
	nout := 1 + int(data[0])%4
	data = data[1:]
	if len(data) < nout {
		return nil, nil, false
	}
	for _, b := range data[:nout] {
		c.outs = append(c.outs, int(b))
	}
	c.dropOut = make([]bool, nout)
	return c, data[nout:], true
}

// edit applies the three-byte edits to a copy of the case's records:
// retype a node within its arity, rename a node, splice a gate in after a
// node, drop an output, or bypass a gate.
func (c *diffCase) edit(edits []byte) *diffCase {
	e := *c
	e.recs = slices.Clone(c.recs)
	e.dropOut = slices.Clone(c.dropOut)
	for ; len(edits) >= 3; edits = edits[3:] {
		op, a, b := edits[0]%5, int(edits[1]), int(edits[2])
		r := &e.recs[a%len(e.recs)]
		switch op {
		case 0:
			switch {
			case slices.Contains(diffMulti, r.kind):
				r.kind = diffMulti[b%len(diffMulti)]
			case r.kind == Not || r.kind == Buf:
				r.kind = Not + Buf - r.kind
			case r.kind == Const0 || r.kind == Const1:
				r.kind = Const0 + Const1 - r.kind
			case r.kind == Lut:
				r.mask ^= 1 << (b % (1 << len(r.fanin)))
			}
		case 1:
			r.name = diffNames[b%len(diffNames)]
		case 2:
			r.spliceKind, r.spliceIn = diffMulti[b%len(diffMulti)], b/len(diffMulti)%e.inputs
		case 3:
			e.dropOut[a%len(e.dropOut)] = true
		case 4:
			r.bypass = r.kind != Latch && len(r.fanin) > 0
		}
	}
	return &e
}

// build makes the case's netlist. img maps each record's position (inputs
// first) to the node that stands for it in later fanins and outputs.
func (c *diffCase) build() *Netlist {
	nl := New("fuzz")
	img := make([]ID, 0, c.inputs+len(c.recs))
	for i := 0; i < c.inputs; i++ {
		img = append(img, nl.AddInput(fmt.Sprintf("i%d", i)))
	}
	var feedback [][2]ID // latch, record position
	for _, r := range c.recs {
		fanin := make([]ID, len(r.fanin))
		for j, f := range r.fanin {
			if !r.feedback {
				fanin[j] = img[f]
			}
		}
		var id ID
		switch {
		case r.bypass:
			img = append(img, fanin[0])
			continue
		case r.kind == Const0 || r.kind == Const1:
			id = nl.AddConst(r.kind == Const1)
		case r.kind == Latch:
			id = nl.AddLatch(fanin[0])
			if r.feedback {
				feedback = append(feedback, [2]ID{id, ID(len(img))})
			}
		case r.kind == Lut:
			id = nl.AddLut(r.mask, fanin...)
		default:
			id = nl.AddGate(r.kind, fanin...)
		}
		if r.name != "" {
			nl.SetName(id, r.name)
		}
		if r.spliceKind != Const0 {
			id = nl.AddGate(r.spliceKind, id, img[r.spliceIn])
		}
		img = append(img, id)
	}
	for _, l := range feedback {
		nl.SetLatchD(l[0], img[c.recs[int(l[1])-c.inputs].fanin[0]%len(img)])
	}
	for i, o := range c.outs {
		if !c.dropOut[i] {
			nl.MarkOutput(fmt.Sprintf("o%d", i), img[o%len(img)])
		}
	}
	return nl
}

// diffRetypeSeed encodes the retype case of TestDiffRetypePairsSuspectOnce:
// golden x = Xor(a,b) and w = Or(a,en) driving its own output; the suspect
// retypes x to Xnor, names it w, bypasses w and drops w's output.
var diffRetypeSeed = []byte{
	2, 4, // three inputs, five records
	4, 0, 1, 0, 0, 255, // x = Xor(a, b)
	1, 0, 2, 0, 0, 0, // w0 = Or(a, en)
	0, 3, 2, 0, 0, 255, // y = And(x, en)
	8, 5, 0, 0, 0, 255, // q = Latch(y)
	1, 6, 1, 0, 0, 255, // out = Or(q, b)
	1, 7, 4, // outputs o0 = out, o1 = w0
	0, 0, 5, // retype x to Xnor
	1, 0, 0, // name x w0
	4, 1, 0, // bypass w0
	3, 1, 0, // drop o1
}

// FuzzDiffNetlists checks that a diff partitions both sides: the golden
// netlist's self-diff is Identical, and against an edited suspect every
// non-constant node of each side is matched, reported only on its side
// (Removed or Added, unmatched inputs by name), or in exactly one Retyped
// pair.
func FuzzDiffNetlists(f *testing.F) {
	f.Add(diffRetypeSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, edits, ok := parseDiffCase(data)
		if !ok {
			return
		}
		g, s := c.build(), c.edit(edits).build()
		for _, nl := range []*Netlist{g, s} {
			if err := nl.Validate(); err != nil {
				t.Fatalf("built an invalid netlist: %v", err)
			}
		}
		if self := DiffNetlists(g, g); !self.Identical() {
			t.Fatalf("self-diff is not Identical: %+v", *self)
		}
		d := newDiffer(g, s)
		diff := d.run()
		var gRetyped, sRetyped []ID
		for _, p := range diff.Retyped {
			gRetyped, sRetyped = append(gRetyped, p.Golden), append(sRetyped, p.Suspect)
		}
		matched := checkDiffSide(t, "golden", g, d.g2s, d.s2g, diff.Removed, gRetyped, diff.InputsRemoved)
		checkDiffSide(t, "suspect", s, d.s2g, d.g2s, diff.Added, sRetyped, diff.InputsAdded)
		if diff.Matched != matched {
			t.Errorf("Matched = %d, want %d", diff.Matched, matched)
		}
	})
}

// checkDiffSide checks one side of a diff: to is the side's matching and
// from the other side's, only the nodes reported on this side alone,
// retyped this side's halves of the Retyped pairs and inputs the input
// names reported on this side alone. It returns the matched node count.
func checkDiffSide(t *testing.T, side string, nl *Netlist, to, from, only, retyped []ID, inputs []string) int {
	t.Helper()
	for i := 1; i < len(only); i++ {
		if only[i-1] >= only[i] {
			t.Errorf("%s-only nodes %v are not strictly ascending", side, only)
		}
	}
	seen := make([]int, nl.Len())
	for _, id := range slices.Concat(only, retyped) {
		if id < 0 || int(id) >= nl.Len() || !matchable(nl.Kind(id)) {
			t.Fatalf("%s node %d reported, but it is out of range or not a gate, latch or LUT", side, id)
		}
		seen[id]++
	}
	matched := 0
	var lost []string
	for i, m := range to {
		id := ID(i)
		switch k := nl.Kind(id); {
		case m != Nil:
			matched++
			if from[m] != id {
				t.Errorf("%s node %d matches %d, which matches %d", side, id, m, from[m])
			}
			seen[id]++
		case k == Input:
			lost = append(lost, nl.NameOf(id))
			seen[id]++
		case k == Const0 || k == Const1:
			seen[id]++
		}
		if seen[id] != 1 {
			t.Errorf("%s node %d (%v) is accounted for %d times", side, id, nl.Kind(id), seen[id])
		}
	}
	slices.Sort(lost)
	if !slices.Equal(lost, inputs) {
		t.Errorf("%s unmatched inputs %v, reported %v", side, lost, inputs)
	}
	return matched
}
