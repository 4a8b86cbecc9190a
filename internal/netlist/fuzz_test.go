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
