package netlist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

// TestParseLiteralWidths: literal widths up to the widest register are
// accepted while the value fits 64 bits, and a letter after the quote that
// is not a base is an error, not a decimal digit.
func TestParseLiteralWidths(t *testing.T) {
	for _, tc := range []struct {
		text string
		ok   bool
	}{
		{"1'b1", true},
		{"64'hffffffffffffffff", true},
		{"65'd0", true},
		{"4096'd1", true},
		{"4097'd0", false},
		{"0'd0", false},
		{"65'h10000000000000000", false},
		{"1'a1", false},
		{"4'f3", false},
		{"8'e7", false},
	} {
		_, _, err := ParseLiteral(tc.text)
		if (err == nil) != tc.ok {
			t.Errorf("ParseLiteral(%s): err %v, want ok=%v", tc.text, err, tc.ok)
		}
	}
}

// TestParseLiteralOverflow: a literal is accepted exactly when its value
// fits 64 bits, and then parses to that value.
func TestParseLiteralOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bases := []struct {
		letter string
		base   int
	}{{"b", 2}, {"d", 10}, {"h", 16}}
	for i := 0; i < 2000; i++ {
		b := bases[rng.Intn(len(bases))]
		digits := make([]byte, 1+rng.Intn(80))
		for j := range digits {
			digits[j] = "0123456789abcdef"[rng.Intn(b.base)]
		}
		if rng.Intn(2) == 0 {
			digits[0] = "0123456789abcdef"[b.base-1] // near the top
		}
		text := "128'" + b.letter + string(digits)
		want, _ := new(big.Int).SetString(string(digits), b.base)
		_, got, err := ParseLiteral(text)
		if fits := want.BitLen() <= 64; fits != (err == nil) {
			t.Fatalf("ParseLiteral(%s): err %v, value has %d bits", text, err, want.BitLen())
		} else if fits && got != want.Uint64() {
			t.Fatalf("ParseLiteral(%s) = %#x, want %#x", text, got, want.Uint64())
		} else if !fits && !errors.Is(err, errOverflow) {
			t.Fatalf("ParseLiteral(%s): err %v, want an overflow", text, err)
		}
	}
	// The previous reader's overflow test missed this one and kept the
	// low 64 bits.
	if v, err := parseSizedLiteral("'h1ffffffffffffffff"); err != nil || v != 1<<64-1 {
		t.Fatalf("oracle parseSizedLiteral = %#x, %v", v, err)
	}
}

// TestReadersRejectTwoDrivers: a net with two drivers is a "driven twice"
// error in both formats. The previous readers kept one driver and dropped
// the other in every shape but two BLIF covers.
func TestReadersRejectTwoDrivers(t *testing.T) {
	for _, tc := range []struct {
		shape, verilog, blif string
		blifOracleRejects    bool
	}{
		{
			shape:             "gate and assign",
			verilog:           "module m (a, b, y); input a, b; output y; and g0 (y, a, b); assign y = a; endmodule",
			blif:              ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.names a y\n1 1\n.end\n",
			blifOracleRejects: true,
		},
		{
			shape:             "two assigns",
			verilog:           "module m (a, b, y); input a, b; output y; assign y = a; assign y = b; endmodule",
			blif:              ".model m\n.inputs a b\n.outputs y\n.names a y\n1 1\n.names b y\n1 1\n.end\n",
			blifOracleRejects: true,
		},
		{
			shape:   "input",
			verilog: "module m (a, b, y); input a, b; output y; assign a = b; buf g0 (y, a); endmodule",
			blif:    ".model m\n.inputs a b\n.outputs y\n.names b a\n1 1\n.names a y\n1 1\n.end\n",
		},
		{
			shape:   "dff output",
			verilog: "module m (d, q); input d; output q; dff r0 (q, d); assign q = 1'b1; endmodule",
			blif:    ".model m\n.inputs d\n.outputs q\n.latch d q re clk 0\n.names q\n1\n.end\n",
		},
	} {
		if _, err := ReadVerilog(strings.NewReader(tc.verilog)); !errors.Is(err, errDrivenTwice) {
			t.Errorf("%s: ReadVerilog err %v, want driven twice", tc.shape, err)
		}
		if _, err := oracleReadVerilog(strings.NewReader(tc.verilog)); err != nil {
			t.Errorf("%s: the previous Verilog reader rejects it: %v", tc.shape, err)
		}
		for _, opt := range []BLIFOptions{{}, {Luts: true}} {
			if _, err := ReadBLIFOpts(strings.NewReader(tc.blif), opt); !errors.Is(err, errDrivenTwice) {
				t.Errorf("%s: ReadBLIF(luts=%v) err %v, want driven twice", tc.shape, opt.Luts, err)
			}
		}
		if _, err := oracleReadBLIF(strings.NewReader(tc.blif), BLIFOptions{}); (err != nil) != tc.blifOracleRejects {
			t.Errorf("%s: the previous BLIF reader returned %v", tc.shape, err)
		}
	}
}

// TestReadLongLines: a design whose port lines are over 1 MiB reads the
// same from Verilog and from BLIF; the previous BLIF reader stopped at
// such a line.
func TestReadLongLines(t *testing.T) {
	n := New("wide")
	pad := strings.Repeat("x", 34)
	var ins []ID
	for i := 0; i < 30000; i++ {
		ins = append(ins, n.AddInput(fmt.Sprintf("%s%05d", pad, i)))
	}
	n.MarkOutput("y", n.AddGate(Xor, ins[0], ins[len(ins)-1]))
	n.MarkOutput("z", n.AddGate(And, ins[1:4]...))
	var v, b bytes.Buffer
	if err := n.WriteVerilog(&v); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteBLIF(&b); err != nil {
		t.Fatal(err)
	}
	inputs := b.String()[strings.Index(b.String(), ".inputs"):]
	if line, _, _ := strings.Cut(inputs, "\n"); len(line) <= 1<<20 {
		t.Fatalf(".inputs line is %d bytes, want over 1 MiB", len(line))
	}
	fromV, err := ReadVerilog(&v)
	if err != nil {
		t.Fatal(err)
	}
	fromB, err := ReadBLIF(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if fv, fb := fromV.Fingerprint(), fromB.Fingerprint(); fv != fb {
		t.Fatalf("fingerprints differ: verilog %s, blif %s", fv, fb)
	}
	if _, err := oracleReadBLIF(bytes.NewReader(b.Bytes()), BLIFOptions{}); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("previous BLIF reader: err %v, want %v", err, bufio.ErrTooLong)
	}
}

// TestLutInitSize: a LUT's INIT is unsized or sized to the 2^k rows of its
// table; any other size, or text before the quote that is not a decimal
// size, is an error in both the reader and its oracle.
func TestLutInitSize(t *testing.T) {
	for _, tc := range []struct {
		cell, init string
		ok         bool
	}{
		{"LUT1", "2'h1", true},
		{"LUT1", "'h1", true},
		{"LUT1", "1", true},
		{"LUT1", "02'b01", true},
		{"LUT2", "4'h8", true},
		{"LUT6", "64'h8000000000000000", true},
		{"LUT1", "64'h1", false},
		{"LUT1", "4'h1", false},
		{"LUT1", "1'h1", false},
		{"LUT1", "x'h1", false},
		{"LUT2", "2'h1", false},
		{"LUT6", "32'h1", false},
	} {
		ports := ".O(y), .I0(a)"
		if tc.cell != "LUT1" {
			ports = ".O(y), .I0(a), .I1(a)"
			if tc.cell == "LUT6" {
				ports += ", .I2(a), .I3(a), .I4(a), .I5(a)"
			}
		}
		src := fmt.Sprintf("module m (a, y); input a; output y; %s #(.INIT(%s)) g (%s); endmodule",
			tc.cell, tc.init, ports)
		_, err := ReadVerilog(strings.NewReader(src))
		_, oerr := oracleReadVerilog(strings.NewReader(src))
		if (err == nil) != tc.ok || (oerr == nil) != tc.ok {
			t.Errorf("%s INIT %s: reader error %v, oracle error %v; want accepted = %v",
				tc.cell, tc.init, err, oerr, tc.ok)
		}
	}
}
