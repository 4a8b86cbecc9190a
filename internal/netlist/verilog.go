package netlist

// This file implements a structural Verilog subset reader and writer. The
// paper's tool consumes synthesized Verilog netlists; we support the subset
// such netlists use when mapped to primitive gates:
//
//	module name (p0, p1, ...);
//	  input a; output y; wire w1;
//	  and  g0 (w1, a, b);     // output port first, then inputs
//	  not  g1 (y, w1);
//	  dff  r0 (q, d);         // Q first, then D
//	  LUT2 #(.INIT(4'h8)) g2 (.O(w2), .I0(a), .I1(b));
//	  assign w3 = 1'b0;
//	endmodule
//
// Gate types: and, or, nand, nor, xor, xnor (n-ary), not, buf (unary),
// dff (2 ports), and FPGA-style LUT1..LUT6 truth-table cells with an INIT
// parameter and named ports (O, I0..I5). Backslash-escaped identifiers are
// accepted and emitted for names that are not legal simple identifiers, so
// FPGA tool output round-trips byte-identically. This is deliberately a
// tiny grammar: the point of the repository is netlist analysis, not
// Verilog parsing.
//
// ReadVerilog scans the text in place and builds through the builder it
// shares with ReadBLIF (reader.go): every net has at most one driver, so
// a gate and an assign on one net, two assigns, or an assign to an input
// or a dff output is a "driven twice" error.

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"strings"
	"unicode/utf8"
)

// WriteVerilog serializes the netlist in the structural subset described in
// the package documentation. Node names are preserved; anonymous nodes get
// synthesized names.
func (n *Netlist) WriteVerilog(w io.Writer) error {
	bw := bufio.NewWriter(w)
	name := n.Name
	if name == "" {
		name = "top"
	}

	netName := func(id ID) string {
		node := &n.nodes[id]
		if node.Name != "" {
			return VerilogName(node.Name)
		}
		return fmt.Sprintf("n%d", id)
	}

	var ports []string
	for _, in := range n.Inputs() {
		ports = append(ports, netName(in))
	}
	outPort := make(map[string]ID)
	var outNames []string
	for _, p := range n.outputs {
		nm := VerilogName(p.Name)
		if _, dup := outPort[nm]; !dup {
			outPort[nm] = p.Driver
			outNames = append(outNames, nm)
		}
	}
	ports = append(ports, outNames...)

	fmt.Fprintf(bw, "module %s (%s);\n", VerilogName(name), strings.Join(ports, ", "))
	for _, in := range n.Inputs() {
		fmt.Fprintf(bw, "  input %s;\n", netName(in))
	}
	for _, nm := range outNames {
		fmt.Fprintf(bw, "  output %s;\n", nm)
	}
	for i, node := range n.nodes {
		if node.Kind == Input {
			continue
		}
		fmt.Fprintf(bw, "  wire %s;\n", netName(ID(i)))
	}
	gi := 0
	for i, node := range n.nodes {
		id := ID(i)
		switch node.Kind {
		case Input:
			// ports only
		case Const0:
			fmt.Fprintf(bw, "  assign %s = 1'b0;\n", netName(id))
		case Const1:
			fmt.Fprintf(bw, "  assign %s = 1'b1;\n", netName(id))
		case Latch:
			fmt.Fprintf(bw, "  dff g%d (%s, %s);\n", gi, netName(id), netName(node.Fanin[0]))
			gi++
		case Lut:
			k := len(node.Fanin)
			args := make([]string, 0, k+1)
			args = append(args, fmt.Sprintf(".O(%s)", netName(id)))
			for j, f := range node.Fanin {
				args = append(args, fmt.Sprintf(".I%d(%s)", j, netName(f)))
			}
			fmt.Fprintf(bw, "  LUT%d #(.INIT(%s)) g%d (%s);\n",
				k, LutInitLiteral(node.Mask, k), gi, strings.Join(args, ", "))
			gi++
		default:
			args := make([]string, 0, len(node.Fanin)+1)
			args = append(args, netName(id))
			for _, f := range node.Fanin {
				args = append(args, netName(f))
			}
			fmt.Fprintf(bw, "  %s g%d (%s);\n", node.Kind, gi, strings.Join(args, ", "))
			gi++
		}
	}
	for _, nm := range outNames {
		drv := outPort[nm]
		if netName(drv) != nm {
			fmt.Fprintf(bw, "  assign %s = %s;\n", nm, netName(drv))
		}
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

// LutInitLiteral formats a LUT mask as the sized hex literal FPGA netlists
// use: 2^k bits, zero-padded to the full digit width.
func LutInitLiteral(mask uint64, k int) string {
	bits := 1 << uint(k)
	return fmt.Sprintf("%d'h%0*x", bits, (bits+3)/4, mask)
}

// lutArity recognizes LUT1..LUT6 cell names.
func lutArity(t string) (int, bool) {
	if len(t) == 4 && strings.HasPrefix(t, "LUT") && t[3] >= '1' && t[3] <= '0'+MaxLutInputs {
		return int(t[3] - '0'), true
	}
	return 0, false
}

// ReadVerilog parses a netlist in the structural subset emitted by
// WriteVerilog. It reads the text once into one string and scans it in
// place; the builder copies each net name out of it.
func ReadVerilog(r io.Reader) (*Netlist, error) {
	src, err := readText(r)
	if err != nil {
		return nil, err
	}
	p := &vreader{src: src, b: newBuilder("verilog", strings.Count(src, ";")/2)}
	return p.module()
}

// vreader scans Verilog text in place. A token is a run of characters up
// to whitespace or one of ( ) , ; = (each of those a token of its own); a
// // comment runs to the end of its line, and an escaped identifier from
// its backslash to the next whitespace, punctuation included.
type vreader struct {
	src  string
	pos  int
	b    *builder
	args []int32 // scratch port list
}

func isVerilogSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isVerilogPunct(c byte) bool { return c == '(' || c == ')' || c == ',' || c == ';' || c == '=' }

// next returns the next token, a substring of the text, or "" at its end.
func (p *vreader) next() string {
	src, i := p.src, p.pos
	for i < len(src) {
		c := src[i]
		if isVerilogSpace(c) {
			i++
			continue
		}
		if c == '/' && i+1 < len(src) && src[i+1] == '/' {
			_, rest, _ := strings.Cut(src[i:], "\n")
			i = len(src) - len(rest)
			continue
		}
		j := i + 1
		switch {
		case isVerilogPunct(c):
		case c == '\\':
			for j < len(src) && !isVerilogSpace(src[j]) {
				j++
			}
		default:
			for j < len(src) && !isVerilogSpace(src[j]) && !isVerilogPunct(src[j]) &&
				!(src[j] == '/' && j+1 < len(src) && src[j+1] == '/') {
				j++
			}
		}
		p.pos = j
		return src[i:j]
	}
	p.pos = i
	return ""
}

func (p *vreader) expect(t string) error {
	if got := p.next(); got != t {
		return fmt.Errorf("verilog: expected %q, got %q", t, got)
	}
	return nil
}

// tokenName returns the name a token spells: an escaped identifier loses
// its backslash, and each byte of an invalid UTF-8 sequence reads as
// U+FFFD, so every name is valid UTF-8.
func tokenName(t string) string {
	t = strings.TrimPrefix(t, `\`)
	if utf8.ValidString(t) {
		return t
	}
	var sb strings.Builder
	for _, r := range t {
		sb.WriteRune(r)
	}
	return sb.String()
}

func (p *vreader) module() (*Netlist, error) {
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	name := tokenName(p.next())
	if name == "" {
		return nil, fmt.Errorf("verilog: missing module name")
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	// The port list is skipped: the declarations say what each port is.
	for t := p.next(); t != ")"; t = p.next() {
		if t == "" {
			return nil, fmt.Errorf("verilog: unterminated port list")
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	for {
		var err error
		switch t := p.next(); t {
		case "endmodule":
			return p.b.build(strings.Clone(name))
		case "":
			return nil, fmt.Errorf("verilog: unexpected end of input")
		case "input", "output", "wire":
			err = p.declare(t)
		case "assign":
			err = p.assign()
		default:
			err = p.cell(t)
		}
		if err != nil {
			return nil, err
		}
	}
}

// declare reads the names of an input, output or wire declaration. Wires
// and outputs are roots, so a declared net without a driver is an error.
func (p *vreader) declare(t string) error {
	for {
		nm := tokenName(p.next())
		if nm == "" || nm == ";" {
			return fmt.Errorf("verilog: bad %s declaration", t)
		}
		net := p.b.net(nm)
		switch t {
		case "input":
			if err := p.b.drive(net, driver{kind: drvInput}); err != nil {
				return err
			}
		case "output":
			p.b.output(net)
		default:
			p.b.root(net)
		}
		switch sep := p.next(); sep {
		case ";":
			return nil
		case ",":
		default:
			return fmt.Errorf("verilog: expected , or ; in %s declaration, got %q", t, sep)
		}
	}
}

// assign reads "lhs = rhs;": a constant (1'b0, 1'b1, or a bare 0 or 1) or
// an alias, built as a named Buf so the alias keeps its own node, as
// ReadBLIF rebuilds WriteBLIF's `1 1` alias covers. The constant test is
// on the raw token: an escaped \0 or \1 names a net.
func (p *vreader) assign() error {
	lhs := p.b.net(tokenName(p.next()))
	if err := p.expect("="); err != nil {
		return err
	}
	rhs := p.next()
	if err := p.expect(";"); err != nil {
		return err
	}
	switch rhs {
	case "1'b0", "0":
		return p.b.drive(lhs, driver{kind: drvConst0})
	case "1'b1", "1":
		return p.b.drive(lhs, driver{kind: drvConst1})
	default:
		return p.b.drive(lhs, driver{kind: drvAlias}, p.b.net(tokenName(rhs)))
	}
}

// cell reads a gate, dff or LUT instance whose type token t was consumed.
func (p *vreader) cell(t string) error {
	kind, ok := GateKind(t)
	if t == "dff" {
		kind, ok = Latch, true
	}
	if !ok {
		if k, ok := lutArity(t); ok {
			return p.lut(t, k)
		}
		return fmt.Errorf("verilog: unknown statement %q", t)
	}
	p.next() // instance name
	args, err := p.ports()
	if err != nil {
		return err
	}
	out, ins := args[0], args[1:]
	// Arity is checked here so malformed input is a parse error, not a
	// builder panic downstream.
	switch {
	case kind == Latch:
		if len(ins) != 1 {
			return fmt.Errorf("verilog: dff needs 2 ports, got %d", len(args))
		}
		return p.b.drive(out, driver{kind: drvLatch}, ins...)
	case (kind == Not || kind == Buf) != (len(ins) == 1) || len(ins) == 0:
		return fmt.Errorf("verilog: gate %s cannot take %d inputs", t, len(ins))
	}
	return p.b.drive(out, driver{kind: drvGate, gate: kind}, ins...)
}

// ports reads "(out, in0, in1, ...);" into net indices, output first.
func (p *vreader) ports() ([]int32, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	args := p.args[:0]
	for {
		a := p.next()
		if a == "" {
			return nil, fmt.Errorf("verilog: unexpected end of port list")
		}
		args = append(args, p.b.net(tokenName(a)))
		switch sep := p.next(); sep {
		case ",":
		case ")":
			p.args = args
			return args, p.expect(";")
		default:
			return nil, fmt.Errorf("verilog: expected , or ) in port list, got %q", sep)
		}
	}
}

// lut reads `LUT<k> #(.INIT(lit)) name (.O(y), .I0(a), ...);` after the
// LUT<k> token. Ports may appear in any order, but the output and all k
// inputs must each appear exactly once. The literal is unsized or sized to
// the 2^k rows of the cell's table.
func (p *vreader) lut(t string, k int) error {
	for _, want := range [...]string{"#", "(", ".INIT", "("} {
		if err := p.expect(want); err != nil {
			return err
		}
	}
	lit := p.next()
	width, mask, err := ParseLiteral(lit)
	if err != nil {
		return fmt.Errorf("verilog: %w", err)
	}
	if width != 0 && width != 1<<k {
		return fmt.Errorf("verilog: %s INIT %s is %d bits wide, want %d", t, lit, width, 1<<k)
	}
	if k < MaxLutInputs && mask>>(1<<uint(k)) != 0 {
		return fmt.Errorf("verilog: %s INIT %#x has bits beyond 2^%d rows", t, mask, k)
	}
	for _, want := range [...]string{")", ")"} {
		if err := p.expect(want); err != nil {
			return err
		}
	}
	p.next() // instance name
	if err := p.expect("("); err != nil {
		return err
	}
	out := int32(-1)
	var ins [MaxLutInputs]int32
	var have uint8 // bit j marks .Ij connected
	for {
		port := p.next()
		if err := p.expect("("); err != nil {
			return err
		}
		nm := tokenName(p.next())
		if nm == "" {
			return fmt.Errorf("verilog: %s port %s has empty net", t, port)
		}
		if err := p.expect(")"); err != nil {
			return err
		}
		switch net := p.b.net(nm); {
		case port == ".O":
			if out >= 0 {
				return fmt.Errorf("verilog: %s has duplicate .O port", t)
			}
			out = net
		case len(port) == 3 && port[:2] == ".I" && port[2] >= '0' && int(port[2]-'0') < k:
			j := port[2] - '0'
			if have>>j&1 == 1 {
				return fmt.Errorf("verilog: %s has duplicate %s port", t, port)
			}
			have |= 1 << j
			ins[j] = net
		default:
			return fmt.Errorf("verilog: %s has unknown port %q", t, port)
		}
		switch sep := p.next(); sep {
		case ",":
		case ")":
			if err := p.expect(";"); err != nil {
				return err
			}
			if out < 0 {
				return fmt.Errorf("verilog: %s missing .O port", t)
			}
			if missing := bits.TrailingZeros8(^have); missing < k {
				return fmt.Errorf("verilog: %s missing .I%d port", t, missing)
			}
			return p.b.drive(out, driver{kind: drvLut, mask: mask}, ins[:k]...)
		default:
			return fmt.Errorf("verilog: expected , or ) in %s port list, got %q", t, sep)
		}
	}
}
