package rtl

// The bounded structural elaborator: re-reads the exact dialect Emit
// produces and expands it back to a gate-level netlist. Template
// instances are expanded from their names alone (the printed bodies are
// documentation), always blocks are rebuilt as per-bit latch logic, and
// residual statements map one-to-one onto gates — so a pure-passthrough
// emission elaborates to a netlist isomorphic to the original. Sized
// literals and gate names are read by the gate-level reader's
// netlist.ParseLiteral and netlist.GateKind; the line scanner and the
// builder are the elaborator's own, because its dialect is line-oriented
// and strict where structural Verilog is free-form.

import (
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"netlistre/internal/netlist"
)

// Elaborate parses emitted RTL and returns the expanded gate-level
// netlist. It accepts only the dialect Emit produces.
func Elaborate(r io.Reader) (*netlist.Netlist, error) {
	var src strings.Builder
	if _, err := io.Copy(&src, r); err != nil {
		return nil, err
	}
	return elaborate(src.String())
}

// elaborate scans the text in place and builds its netlist. Net names in
// the result are substrings of src.
func elaborate(src string) (*netlist.Netlist, error) {
	e, err := scan(src)
	if err != nil {
		return nil, err
	}
	return e.build()
}

type defKind int

const (
	defInput defKind = iota
	defConst
	defGate
	defLut
	defDff
	defAlias
	defInst
	defReg
)

// Resolution states of a netDef during build.
const (
	unresolved uint8 = iota
	onStack          // being resolved: reaching it again is a cycle
	resolved         // id holds the net's node
)

type netDef struct {
	name string
	kind defKind
	gate netlist.Kind
	args []string // gate/lut fanins, dff D, alias target
	mask uint64   // lut truth table
	cval bool
	inst *instDef
	reg  *regDef
	bit  int

	state uint8
	id    netlist.ID
}

type instDef struct {
	tmpl  template
	name  string
	conns map[string][]string // port -> net names, LSB first
	done  bool
}

type regDef struct {
	name   string
	width  int
	qNames []string // per-bit alias names from the unpack assign
	expr   []token  // next-state expression
	lats   []netlist.ID
}

type elab struct {
	design  string
	inputs  []string
	outputs []string
	defs    map[string]*netDef
	regs    []*regDef
	insts   []*instDef
	order   []*netDef // statement-defined nets in file order
	clk     string
}

// --- tokenizer ---

type token struct {
	kind byte   // 'i' identifier, 'n' number, or the symbol itself
	text string // a substring of the scanned source
}

// tokenize appends the tokens of one line to dst.
func tokenize(dst []token, s string) ([]token, error) {
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '/' && i+1 < len(s) && s[i+1] == '/':
			i = len(s)
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			j := i
			for j < len(s) && (s[j] == '_' || s[j] == '$' ||
				s[j] >= 'a' && s[j] <= 'z' || s[j] >= 'A' && s[j] <= 'Z' ||
				s[j] >= '0' && s[j] <= '9') {
				j++
			}
			dst = append(dst, token{kind: 'i', text: s[i:j]})
			i = j
		case c >= '0' && c <= '9':
			// A sized literal can carry hex digits after the base marker
			// ('h from re_lut INIT parameters), so a-f belong to the token.
			j := i
			for j < len(s) && (s[j] >= '0' && s[j] <= '9' ||
				s[j] == '\'' || s[j] >= 'a' && s[j] <= 'f' || s[j] == 'h') {
				j++
			}
			dst = append(dst, token{kind: 'n', text: s[i:j]})
			i = j
		case strings.IndexByte("(){}[],;=.?:+-@<#", c) >= 0:
			if c == '<' && i+1 < len(s) && s[i+1] == '=' {
				dst = append(dst, token{kind: '<', text: s[i : i+2]})
				i += 2
				break
			}
			dst = append(dst, token{kind: c, text: s[i : i+1]})
			i++
		default:
			return dst, fmt.Errorf("rtl: unexpected character %q", c)
		}
	}
	return dst, nil
}

// parseLiteral decodes a sized literal N'dV / N'bV / N'hV into (width,
// value). The value must fit 64 bits; the width may be up to
// netlist.MaxLiteralWidth (the reset and step literals of the widest
// registers). Only a number token holds a quote, so any other is unsized.
func parseLiteral(t token) (width int, val uint64, err error) {
	w, v, err := netlist.ParseLiteral(t.text)
	if err != nil || w == 0 {
		return 0, 0, fmt.Errorf("rtl: bad literal %q", t.text)
	}
	return w, v, nil
}

// --- scanner ---

// scan reads src line by line in place. Lines end at '\n' with one
// optional '\r' before it, and a last line needs no terminator, as with
// bufio.ScanLines. Tokens are substrings of src held in one buffer reused
// across lines, so only what a definition keeps is copied out of it.
func scan(src string) (*elab, error) {
	// Nearly every line defines at most one net.
	e := &elab{defs: make(map[string]*netDef, strings.Count(src, "\n"))}
	var toks []token
	inTop, topDone, skipping, inAlways := false, false, false, false
	lineNo := 0
	for rest := src; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		line = strings.TrimSuffix(line, "\r")
		lineNo++
		if skipping {
			// Template bodies are documentation in a richer dialect than
			// the tokenizer accepts; skip them textually.
			if strings.TrimSpace(line) == "endmodule" {
				skipping = false
			}
			continue
		}
		var err error
		toks, err = tokenize(toks[:0], line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if len(toks) == 0 {
			continue
		}
		head := toks[0]
		k, isGate := netlist.GateKind(head.text)
		switch {
		case head.kind == 'i' && head.text == "module":
			if len(toks) < 2 || toks[1].kind != 'i' {
				return nil, fmt.Errorf("line %d: malformed module header", lineNo)
			}
			name := toks[1].text
			if topDone || inTop {
				if _, ok := parseTemplate(name); !ok {
					return nil, fmt.Errorf("line %d: unknown template module %q", lineNo, name)
				}
				skipping = true
				continue
			}
			e.design = name
			inTop = true
		case head.kind == 'i' && head.text == "endmodule":
			if inAlways {
				return nil, fmt.Errorf("line %d: endmodule inside always", lineNo)
			}
			inTop, topDone = false, true
		case !inTop:
			return nil, fmt.Errorf("line %d: statement outside module", lineNo)
		case inAlways:
			// Inside an always block: "R <= expr;" then "end".
			if head.kind == 'i' && head.text == "end" && len(toks) == 1 {
				inAlways = false
				continue
			}
			if len(toks) < 4 || head.kind != 'i' || toks[1].kind != '<' {
				return nil, fmt.Errorf("line %d: unsupported always statement", lineNo)
			}
			d, ok := e.defs[head.text]
			if !ok || d.kind != defReg {
				return nil, fmt.Errorf("line %d: assignment to non-register %s", lineNo, head.text)
			}
			if d.reg.expr != nil {
				return nil, fmt.Errorf("line %d: second assignment to %s", lineNo, head.text)
			}
			body := toks[2:]
			if body[len(body)-1].kind != ';' {
				return nil, fmt.Errorf("line %d: missing semicolon", lineNo)
			}
			d.reg.expr = slices.Clone(body[:len(body)-1])
		case head.kind == 'i' && head.text == "input":
			name, err := oneIdent(toks[1:])
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if _, dup := e.defs[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate net %s", lineNo, name)
			}
			e.defs[name] = &netDef{name: name, kind: defInput}
			e.inputs = append(e.inputs, name)
		case head.kind == 'i' && head.text == "output":
			name, err := oneIdent(toks[1:])
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			e.outputs = append(e.outputs, name)
		case head.kind == 'i' && head.text == "wire":
			// Scalar and vector wire declarations carry no structure.
		case head.kind == 'i' && head.text == "reg":
			// reg [h:0] name;
			if len(toks) != 8 || toks[1].kind != '[' || toks[2].kind != 'n' ||
				toks[3].kind != ':' || toks[4].kind != 'n' || toks[5].kind != ']' ||
				toks[6].kind != 'i' || toks[7].kind != ';' {
				return nil, fmt.Errorf("line %d: malformed reg declaration", lineNo)
			}
			hi, err1 := strconv.Atoi(toks[2].text)
			lo, err2 := strconv.Atoi(toks[4].text)
			if err1 != nil || err2 != nil || lo != 0 || hi < 0 || hi > 4095 {
				return nil, fmt.Errorf("line %d: malformed reg range", lineNo)
			}
			rd := &regDef{name: toks[6].text, width: hi + 1}
			if _, dup := e.defs[rd.name]; dup {
				return nil, fmt.Errorf("line %d: duplicate net %s", lineNo, rd.name)
			}
			e.defs[rd.name] = &netDef{name: rd.name, kind: defReg, reg: rd}
			e.regs = append(e.regs, rd)
		case head.kind == 'i' && head.text == "always":
			// always @(posedge clk) begin
			if len(toks) != 7 || toks[1].kind != '@' || toks[2].kind != '(' ||
				toks[3].kind != 'i' || toks[3].text != "posedge" || toks[4].kind != 'i' ||
				toks[5].kind != ')' || toks[6].kind != 'i' || toks[6].text != "begin" {
				return nil, fmt.Errorf("line %d: malformed always header", lineNo)
			}
			if e.clk == "" {
				e.clk = toks[4].text
			} else if e.clk != toks[4].text {
				return nil, fmt.Errorf("line %d: second clock %s", lineNo, toks[4].text)
			}
			inAlways = true
		case head.kind == 'i' && head.text == "assign":
			if err := e.scanAssign(toks[1:]); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		case head.kind == 'i' && head.text == "dff":
			outName, args, err := gateArgs(toks[1:])
			if err != nil || len(args) != 1 {
				return nil, fmt.Errorf("line %d: malformed dff", lineNo)
			}
			if _, dup := e.defs[outName]; dup {
				return nil, fmt.Errorf("line %d: duplicate net %s", lineNo, outName)
			}
			e.addNet(&netDef{name: outName, kind: defDff, args: args})
		case head.kind == 'i' && isGate:
			outName, args, err := gateArgs(toks[1:])
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if (k == netlist.Not || k == netlist.Buf) != (len(args) == 1) || len(args) == 0 {
				return nil, fmt.Errorf("line %d: bad arity for %s", lineNo, head.text)
			}
			if _, dup := e.defs[outName]; dup {
				return nil, fmt.Errorf("line %d: duplicate net %s", lineNo, outName)
			}
			e.addNet(&netDef{name: outName, kind: defGate, gate: k, args: args})
		case head.kind == 'i' && head.text == "re_lut":
			// Parameterized truth-table cell: re_lut #(.INIT(L)) gN (.O(y), .I0(a), ...);
			if err := e.scanLut(toks); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		case head.kind == 'i':
			// Template instance: re_x u0 (.p(a), .q({b, c}));
			if err := e.scanInstance(toks); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("line %d: unsupported statement", lineNo)
		}
	}
	if e.design == "" {
		return nil, fmt.Errorf("rtl: no module found")
	}
	if !topDone {
		return nil, fmt.Errorf("rtl: missing endmodule")
	}
	return e, nil
}

// addNet records a statement-defined net, to be built in file order.
func (e *elab) addNet(d *netDef) {
	e.defs[d.name] = d
	e.order = append(e.order, d)
}

func oneIdent(toks []token) (string, error) {
	if len(toks) != 2 || toks[0].kind != 'i' || toks[1].kind != ';' {
		return "", fmt.Errorf("expected single identifier")
	}
	return toks[0].text, nil
}

// gateArgs parses "gN (out, a, b);" returning out and the fanin names.
func gateArgs(toks []token) (string, []string, error) {
	if len(toks) < 5 || toks[0].kind != 'i' || toks[1].kind != '(' {
		return "", nil, fmt.Errorf("malformed gate statement")
	}
	names := make([]string, 0, (len(toks)-2)/2)
	i := 2
	for {
		if i >= len(toks) || toks[i].kind != 'i' {
			return "", nil, fmt.Errorf("malformed gate argument")
		}
		names = append(names, toks[i].text)
		i++
		if i >= len(toks) {
			return "", nil, fmt.Errorf("unterminated gate statement")
		}
		if toks[i].kind == ',' {
			i++
			continue
		}
		if toks[i].kind == ')' {
			break
		}
		return "", nil, fmt.Errorf("malformed gate statement")
	}
	if i+1 >= len(toks) || toks[i+1].kind != ';' {
		return "", nil, fmt.Errorf("missing semicolon")
	}
	if len(names) < 2 {
		return "", nil, fmt.Errorf("gate needs an output and at least one input")
	}
	return names[0], names[1:], nil
}

// scanAssign classifies an assign statement (tokens after "assign").
func (e *elab) scanAssign(toks []token) error {
	if len(toks) < 4 || toks[len(toks)-1].kind != ';' {
		return fmt.Errorf("malformed assign")
	}
	toks = toks[:len(toks)-1]
	if toks[0].kind == '{' {
		// Unpack: {qN, ..., q0} = R
		var names []string
		i := 1
		for {
			if i >= len(toks) || toks[i].kind != 'i' {
				return fmt.Errorf("malformed unpack assign")
			}
			names = append(names, toks[i].text)
			i++
			if i < len(toks) && toks[i].kind == ',' {
				i++
				continue
			}
			break
		}
		if i+3 != len(toks) || toks[i].kind != '}' || toks[i+1].kind != '=' {
			return fmt.Errorf("malformed unpack assign")
		}
		// The RHS must be a register name.
		rhs := toks[i+2:]
		if len(rhs) != 1 || rhs[0].kind != 'i' {
			return fmt.Errorf("unpack RHS must be a register")
		}
		d, ok := e.defs[rhs[0].text]
		if !ok || d.kind != defReg {
			return fmt.Errorf("unpack of non-register %s", rhs[0].text)
		}
		if d.reg.qNames != nil {
			return fmt.Errorf("second unpack of %s", rhs[0].text)
		}
		if len(names) != d.reg.width {
			return fmt.Errorf("unpack width mismatch for %s", rhs[0].text)
		}
		// names are MSB first; store LSB first.
		q := make([]string, len(names))
		for i, n := range names {
			q[len(names)-1-i] = n
		}
		for bit, n := range q {
			if _, dup := e.defs[n]; dup {
				return fmt.Errorf("duplicate net %s", n)
			}
			e.defs[n] = &netDef{name: n, kind: defAlias, reg: d.reg, bit: bit}
		}
		d.reg.qNames = q
		return nil
	}
	if toks[0].kind != 'i' || toks[1].kind != '=' {
		return fmt.Errorf("malformed assign")
	}
	lhs, rhs := toks[0].text, toks[2:]
	switch {
	case len(rhs) == 1 && rhs[0].kind == 'n':
		w, v, err := parseLiteral(rhs[0])
		if err != nil || w != 1 {
			return fmt.Errorf("unsupported constant assign to %s", lhs)
		}
		if _, dup := e.defs[lhs]; dup {
			return fmt.Errorf("duplicate net %s", lhs)
		}
		e.addNet(&netDef{name: lhs, kind: defConst, cval: v == 1})
	case len(rhs) == 1 && rhs[0].kind == 'i':
		// Scalar alias; only meaningful for outputs, harmless otherwise.
		if _, dup := e.defs[lhs]; dup {
			return fmt.Errorf("duplicate net %s", lhs)
		}
		e.defs[lhs] = &netDef{name: lhs, kind: defAlias, args: []string{rhs[0].text}}
	case rhs[0].kind == '{':
		// Pack of a documentation word vector: structurally inert.
	default:
		return fmt.Errorf("unsupported assign to %s", lhs)
	}
	return nil
}

// scanLut parses "re_lut #(.INIT(2^k'h..)) gN (.O(y), .I0(a), ... .Ik-1(z));".
// Ports may appear in any order; the literal width must match 2^k for the
// connected input count.
func (e *elab) scanLut(toks []token) error {
	i := 1
	expect := func(k byte) bool {
		if i < len(toks) && toks[i].kind == k {
			i++
			return true
		}
		return false
	}
	ident := func() (string, bool) {
		if i < len(toks) && toks[i].kind == 'i' {
			s := toks[i].text
			i++
			return s, true
		}
		return "", false
	}
	if !expect('#') || !expect('(') || !expect('.') {
		return fmt.Errorf("malformed re_lut parameter list")
	}
	if p, ok := ident(); !ok || p != "INIT" {
		return fmt.Errorf("re_lut: expected .INIT parameter")
	}
	if !expect('(') || i >= len(toks) {
		return fmt.Errorf("malformed re_lut parameter list")
	}
	width, mask, err := parseLiteral(toks[i])
	if err != nil {
		return fmt.Errorf("re_lut INIT: %w", err)
	}
	i++
	if !expect(')') || !expect(')') {
		return fmt.Errorf("malformed re_lut parameter list")
	}
	if _, ok := ident(); !ok { // instance name
		return fmt.Errorf("re_lut: missing instance name")
	}
	if !expect('(') {
		return fmt.Errorf("malformed re_lut port list")
	}
	outName := ""
	var ins [6]string // by input index; bit j of have marks Ij connected
	var have uint8
	for {
		if !expect('.') {
			return fmt.Errorf("malformed re_lut port connection")
		}
		port, ok := ident()
		if !ok {
			return fmt.Errorf("malformed re_lut port connection")
		}
		if !expect('(') {
			return fmt.Errorf("malformed re_lut port connection")
		}
		net, ok := ident()
		if !ok {
			return fmt.Errorf("malformed re_lut port connection")
		}
		if !expect(')') {
			return fmt.Errorf("malformed re_lut port connection")
		}
		switch {
		case port == "O":
			if outName != "" {
				return fmt.Errorf("re_lut: duplicate port O")
			}
			outName = net
		case len(port) == 2 && port[0] == 'I' && port[1] >= '0' && port[1] <= '5':
			idx := port[1] - '0'
			if have>>idx&1 == 1 {
				return fmt.Errorf("re_lut: duplicate port %s", port)
			}
			have |= 1 << idx
			ins[idx] = net
		default:
			return fmt.Errorf("re_lut: unknown port %s", port)
		}
		if i < len(toks) && toks[i].kind == ',' {
			i++
			continue
		}
		break
	}
	if !expect(')') || !expect(';') || i != len(toks) {
		return fmt.Errorf("malformed re_lut instance")
	}
	k := bits.OnesCount8(have)
	if outName == "" || k == 0 {
		return fmt.Errorf("re_lut: missing O or input ports")
	}
	if missing := bits.TrailingZeros8(^have); missing < k {
		return fmt.Errorf("re_lut: missing port I%d", missing)
	}
	args := slices.Clone(ins[:k])
	if width != 1<<uint(k) {
		return fmt.Errorf("re_lut: INIT width %d does not match %d inputs", width, k)
	}
	if k < 6 && mask>>(1<<uint(k)) != 0 {
		return fmt.Errorf("re_lut: INIT %#x has bits beyond 2^%d rows", mask, k)
	}
	if _, dup := e.defs[outName]; dup {
		return fmt.Errorf("duplicate net %s", outName)
	}
	e.addNet(&netDef{name: outName, kind: defLut, args: args, mask: mask})
	return nil
}

// scanInstance parses "re_x u0 (.p(a), .q({b, c}));".
func (e *elab) scanInstance(toks []token) error {
	if len(toks) < 6 || toks[0].kind != 'i' || toks[1].kind != 'i' || toks[2].kind != '(' {
		return fmt.Errorf("unsupported statement %q", toks[0].text)
	}
	tmpl, ok := parseTemplate(toks[0].text)
	if !ok {
		return fmt.Errorf("unknown template %q", toks[0].text)
	}
	inst := &instDef{tmpl: tmpl, name: toks[1].text, conns: map[string][]string{}}
	// kind reads past the end of a truncated statement as no token.
	kind := func(i int) byte {
		if i < len(toks) {
			return toks[i].kind
		}
		return 0
	}
	i := 3
	for {
		if i+3 >= len(toks) || toks[i].kind != '.' || toks[i+1].kind != 'i' || toks[i+2].kind != '(' {
			return fmt.Errorf("malformed port connection")
		}
		port := toks[i+1].text
		i += 3
		var bitsMSB []string
		if kind(i) == '{' {
			i++
			for {
				if kind(i) != 'i' {
					return fmt.Errorf("malformed port concat")
				}
				bitsMSB = append(bitsMSB, toks[i].text)
				i++
				if kind(i) == ',' {
					i++
					continue
				}
				break
			}
			if kind(i) != '}' {
				return fmt.Errorf("malformed port concat")
			}
			i++
		} else if kind(i) == 'i' {
			bitsMSB = append(bitsMSB, toks[i].text)
			i++
		} else {
			return fmt.Errorf("malformed port connection")
		}
		if kind(i) != ')' {
			return fmt.Errorf("malformed port connection")
		}
		i++
		if _, dup := inst.conns[port]; dup {
			return fmt.Errorf("duplicate port %s", port)
		}
		lsb := make([]string, len(bitsMSB))
		for j, n := range bitsMSB {
			lsb[len(bitsMSB)-1-j] = n
		}
		inst.conns[port] = lsb
		if kind(i) == ',' {
			i++
			continue
		}
		break
	}
	if i+1 >= len(toks) || toks[i].kind != ')' || toks[i+1].kind != ';' {
		return fmt.Errorf("malformed instance")
	}
	// Register output nets.
	for _, pw := range inst.tmpl.portWidths() {
		conn := inst.conns[pw.name]
		if len(conn) != pw.width {
			return fmt.Errorf("port %s of %s: %d bits connected, want %d",
				pw.name, inst.name, len(conn), pw.width)
		}
		if !pw.out {
			continue
		}
		for _, n := range conn {
			if _, dup := e.defs[n]; dup {
				return fmt.Errorf("duplicate net %s", n)
			}
			e.addNet(&netDef{name: n, kind: defInst, inst: inst})
		}
	}
	e.insts = append(e.insts, inst)
	return nil
}
