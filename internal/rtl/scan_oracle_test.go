package rtl

// The elaborator's previous line scanner, kept as a test oracle for the
// in-place scanner: a bufio.Scanner over the text, one fresh string and
// token slice per line, and a map per LUT cell's ports. FuzzElaborate
// feeds the same text to both and requires the same error or the same
// netlist.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"netlistre/internal/netlist"
)

// tokenizeLine is the previous tokenizer: one token slice per line and
// an allocated string per one-character symbol.
func tokenizeLine(s string) ([]token, error) {
	var out []token
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
			out = append(out, token{kind: 'i', text: s[i:j]})
			i = j
		case c >= '0' && c <= '9':
			// A sized literal can carry hex digits after the base marker
			// ('h from re_lut INIT parameters), so a-f belong to the token.
			j := i
			for j < len(s) && (s[j] >= '0' && s[j] <= '9' ||
				s[j] == '\'' || s[j] >= 'a' && s[j] <= 'f' || s[j] == 'h') {
				j++
			}
			out = append(out, token{kind: 'n', text: s[i:j]})
			i = j
		case strings.IndexByte("(){}[],;=.?:+-@<#", c) >= 0:
			if c == '<' && i+1 < len(s) && s[i+1] == '=' {
				out = append(out, token{kind: '<', text: "<="})
				i += 2
				break
			}
			out = append(out, token{kind: c, text: string(c)})
			i++
		default:
			return nil, fmt.Errorf("rtl: unexpected character %q", c)
		}
	}
	return out, nil
}

// scanLines is the previous scanner over a bufio.Scanner.
func scanLines(r io.Reader) (*elab, error) {
	e := &elab{defs: map[string]*netDef{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	inTop, topDone, skipping, inAlways := false, false, false, false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if skipping {
			// Template bodies are documentation in a richer dialect than
			// the tokenizer accepts; skip them textually.
			if strings.TrimSpace(sc.Text()) == "endmodule" {
				skipping = false
			}
			continue
		}
		toks, err := tokenizeLine(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if len(toks) == 0 {
			continue
		}
		head := toks[0]
		_, isGate := netlist.GateKind(head.text)
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
			d.reg.expr = body[:len(body)-1]
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
			k, _ := netlist.GateKind(head.text)
			if (k == netlist.Not || k == netlist.Buf) != (len(args) == 1) || len(args) == 0 {
				return nil, fmt.Errorf("line %d: bad arity for %s", lineNo, head.text)
			}
			if _, dup := e.defs[outName]; dup {
				return nil, fmt.Errorf("line %d: duplicate net %s", lineNo, outName)
			}
			e.addNet(&netDef{name: outName, kind: defGate, gate: k, args: args})
		case head.kind == 'i' && head.text == "re_lut":
			// Parameterized truth-table cell: re_lut #(.INIT(L)) gN (.O(y), .I0(a), ...);
			if err := e.scanLutMap(toks); err != nil {
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
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if e.design == "" {
		return nil, fmt.Errorf("rtl: no module found")
	}
	if !topDone {
		return nil, fmt.Errorf("rtl: missing endmodule")
	}
	return e, nil
}

// scanLutMap parses "re_lut #(.INIT(2^k'h..)) gN (.O(y), .I0(a), ... .Ik-1(z));".
// Ports may appear in any order; the literal width must match 2^k for the
// connected input count.
func (e *elab) scanLutMap(toks []token) error {
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
	ins := map[int]string{}
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
			idx := int(port[1] - '0')
			if _, dup := ins[idx]; dup {
				return fmt.Errorf("re_lut: duplicate port %s", port)
			}
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
	k := len(ins)
	if outName == "" || k == 0 {
		return fmt.Errorf("re_lut: missing O or input ports")
	}
	args := make([]string, k)
	for j := 0; j < k; j++ {
		n, ok := ins[j]
		if !ok {
			return fmt.Errorf("re_lut: missing port I%d", j)
		}
		args[j] = n
	}
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
