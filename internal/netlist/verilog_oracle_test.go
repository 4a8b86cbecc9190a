package netlist

// The previous structural Verilog reader, kept as a test oracle for the
// in-place reader: a rune tokenizer that first builds a []string of every
// token, and a builder that resolves nets through name maps with a fresh
// trail map per root. FuzzReadVerilog feeds the same text to both.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

var gateKinds = map[string]Kind{
	"and": And, "or": Or, "nand": Nand, "nor": Nor,
	"xor": Xor, "xnor": Xnor, "not": Not, "buf": Buf,
}

// parseSizedLiteral parses a sized Verilog literal (<width>'b..., 'd...,
// 'h...) into its value. Unsized plain decimal is also accepted.
func parseSizedLiteral(s string) (uint64, error) {
	body := s
	if i := strings.IndexByte(s, '\''); i >= 0 {
		body = s[i+1:]
	} else {
		body = "'d" + s // plain decimal
		body = body[1:]
	}
	if body == "" {
		return 0, fmt.Errorf("verilog: bad literal %q", s)
	}
	base := uint64(10)
	switch body[0] {
	case 'b', 'B':
		base, body = 2, body[1:]
	case 'd', 'D':
		base, body = 10, body[1:]
	case 'h', 'H':
		base, body = 16, body[1:]
	}
	if body == "" {
		return 0, fmt.Errorf("verilog: bad literal %q", s)
	}
	var v uint64
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c == '_' {
			continue
		}
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, fmt.Errorf("verilog: bad literal %q", s)
		}
		if d >= base {
			return 0, fmt.Errorf("verilog: bad literal %q", s)
		}
		prev := v
		v = v*base + d
		if v < prev {
			return 0, fmt.Errorf("verilog: literal %q overflows", s)
		}
	}
	return v, nil
}

// unescapeTok strips the backslash of an escaped-identifier token.
func unescapeTok(t string) string {
	if strings.HasPrefix(t, "\\") {
		return t[1:]
	}
	return t
}

// oracleReadVerilog is the previous ReadVerilog.
func oracleReadVerilog(r io.Reader) (*Netlist, error) {
	toks, err := tokenize(r)
	if err != nil {
		return nil, err
	}
	p := &vparser{toks: toks}
	return p.parseModule()
}

type vparser struct {
	toks []string
	pos  int
}

func (p *vparser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *vparser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *vparser) expect(t string) error {
	if got := p.next(); got != t {
		return fmt.Errorf("verilog: expected %q, got %q", t, got)
	}
	return nil
}

// pending records facts collected during the parse, resolved once all nets
// are known.
type pendingGate struct {
	kind Kind
	out  string
	ins  []string
	mask uint64 // Lut only
}

func (p *vparser) parseModule() (*Netlist, error) {
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	name := unescapeTok(p.next())
	if name == "" {
		return nil, fmt.Errorf("verilog: missing module name")
	}
	// Port list.
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for p.peek() != ")" && p.peek() != "" {
		p.next()
		if p.peek() == "," {
			p.next()
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}

	var inputs, outputs, wires []string
	var gates []pendingGate
	assigns := make(map[string]string) // lhs -> rhs token or "0"/"1"

	for {
		switch t := p.next(); t {
		case "endmodule":
			return buildFromParse(name, inputs, outputs, wires, gates, assigns)
		case "":
			return nil, fmt.Errorf("verilog: unexpected end of input")
		case "input", "output", "wire":
			for {
				nm := unescapeTok(p.next())
				if nm == "" || nm == ";" {
					return nil, fmt.Errorf("verilog: bad %s declaration", t)
				}
				switch t {
				case "input":
					inputs = append(inputs, nm)
				case "output":
					outputs = append(outputs, nm)
				case "wire":
					wires = append(wires, nm)
				}
				if sep := p.next(); sep == ";" {
					break
				} else if sep != "," {
					return nil, fmt.Errorf("verilog: expected , or ; in %s declaration, got %q", t, sep)
				}
			}
		case "assign":
			lhs := unescapeTok(p.next())
			if err := p.expect("="); err != nil {
				return nil, err
			}
			rhs := p.next()
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			switch rhs {
			case "1'b0":
				assigns[lhs] = "0"
			case "1'b1":
				assigns[lhs] = "1"
			default:
				assigns[lhs] = rhs
			}
		case "dff":
			p.next() // instance name
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			if len(args) != 2 {
				return nil, fmt.Errorf("verilog: dff needs 2 ports, got %d", len(args))
			}
			gates = append(gates, pendingGate{kind: Latch, out: args[0], ins: args[1:]})
		default:
			if k, ok := lutArity(t); ok {
				g, err := p.parseLutInstance(t, k)
				if err != nil {
					return nil, err
				}
				gates = append(gates, g)
				continue
			}
			kind, ok := gateKinds[t]
			if !ok {
				return nil, fmt.Errorf("verilog: unknown statement %q", t)
			}
			p.next() // instance name
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			if len(args) < 2 {
				return nil, fmt.Errorf("verilog: gate %s needs >=2 ports", t)
			}
			// Enforce gate arity here so malformed input is a parse error,
			// not a builder panic downstream.
			ins := len(args) - 1
			if kind == Not || kind == Buf {
				if ins != 1 {
					return nil, fmt.Errorf("verilog: gate %s needs 1 input, got %d", t, ins)
				}
			} else if ins < 2 {
				return nil, fmt.Errorf("verilog: gate %s needs >=2 inputs, got %d", t, ins)
			}
			gates = append(gates, pendingGate{kind: kind, out: args[0], ins: args[1:]})
		}
	}
}

// parseLutInstance parses `LUT<k> #(.INIT(lit)) name (.O(y), .I0(a), ...);`
// after the LUT<k> token has been consumed. Ports may appear in any order
// but all k inputs and the output must be present exactly once.
func (p *vparser) parseLutInstance(t string, k int) (pendingGate, error) {
	g := pendingGate{kind: Lut, ins: make([]string, k)}
	for _, want := range []string{"#", "(", ".INIT", "("} {
		if err := p.expect(want); err != nil {
			return g, err
		}
	}
	lit := p.next()
	if size, _, sized := strings.Cut(lit, "'"); sized && size != "" {
		if w, err := strconv.Atoi(size); err != nil || size[0] < '0' || size[0] > '9' || w != 1<<k {
			return g, fmt.Errorf("verilog: %s INIT %s is not %d bits wide", t, lit, 1<<k)
		}
	}
	mask, err := parseSizedLiteral(lit)
	if err != nil {
		return g, err
	}
	if k < MaxLutInputs && mask>>(1<<uint(k)) != 0 {
		return g, fmt.Errorf("verilog: %s INIT %#x has bits beyond 2^%d rows", t, mask, k)
	}
	g.mask = mask
	for _, want := range []string{")", ")"} {
		if err := p.expect(want); err != nil {
			return g, err
		}
	}
	p.next() // instance name
	if err := p.expect("("); err != nil {
		return g, err
	}
	haveOut := false
	haveIn := make([]bool, k)
	for {
		port := p.next()
		if err := p.expect("("); err != nil {
			return g, err
		}
		net := unescapeTok(p.next())
		if net == "" {
			return g, fmt.Errorf("verilog: %s port %s has empty net", t, port)
		}
		if err := p.expect(")"); err != nil {
			return g, err
		}
		switch {
		case port == ".O":
			if haveOut {
				return g, fmt.Errorf("verilog: %s has duplicate .O port", t)
			}
			haveOut = true
			g.out = net
		case strings.HasPrefix(port, ".I") && len(port) == 3 &&
			port[2] >= '0' && int(port[2]-'0') < k:
			idx := int(port[2] - '0')
			if haveIn[idx] {
				return g, fmt.Errorf("verilog: %s has duplicate %s port", t, port)
			}
			haveIn[idx] = true
			g.ins[idx] = net
		default:
			return g, fmt.Errorf("verilog: %s has unknown port %q", t, port)
		}
		switch sep := p.next(); sep {
		case ",":
		case ")":
			if err := p.expect(";"); err != nil {
				return g, err
			}
			if !haveOut {
				return g, fmt.Errorf("verilog: %s missing .O port", t)
			}
			for i, ok := range haveIn {
				if !ok {
					return g, fmt.Errorf("verilog: %s missing .I%d port", t, i)
				}
			}
			return g, nil
		default:
			return g, fmt.Errorf("verilog: expected , or ) in %s port list, got %q", t, sep)
		}
	}
}

func (p *vparser) parseArgs() ([]string, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var args []string
	for {
		a := p.next()
		if a == "" {
			return nil, fmt.Errorf("verilog: unexpected end of port list")
		}
		args = append(args, unescapeTok(a))
		switch sep := p.next(); sep {
		case ",":
		case ")":
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			return args, nil
		default:
			return nil, fmt.Errorf("verilog: expected , or ) in port list, got %q", sep)
		}
	}
}

func buildFromParse(name string, inputs, outputs, wires []string,
	gates []pendingGate, assigns map[string]string) (*Netlist, error) {

	n := New(name)
	ids := make(map[string]ID)
	for _, in := range inputs {
		if _, dup := ids[in]; dup {
			return nil, fmt.Errorf("verilog: duplicate input %q", in)
		}
		ids[in] = n.AddInput(in)
	}

	driver := make(map[string]int) // net -> index into gates, or -2 for const/alias
	for i, g := range gates {
		if _, dup := driver[g.out]; dup {
			return nil, fmt.Errorf("verilog: net %q driven twice", g.out)
		}
		if _, isIn := ids[g.out]; isIn {
			return nil, fmt.Errorf("verilog: input %q driven by gate", g.out)
		}
		driver[g.out] = i
	}

	// Create latches first so feedback resolves; the D input starts as the
	// Nil placeholder and is patched in a second pass, so parsing adds no
	// structure beyond what the file describes.
	for i := range gates {
		if gates[i].kind == Latch {
			ids[gates[i].out] = n.AddNamedLatch(gates[i].out, Nil)
		}
	}

	var resolve func(net string, trail map[string]bool) (ID, error)
	resolve = func(net string, trail map[string]bool) (ID, error) {
		if id, ok := ids[net]; ok {
			return id, nil
		}
		if trail[net] {
			return Nil, fmt.Errorf("verilog: combinational cycle through net %q", net)
		}
		trail[net] = true
		defer delete(trail, net)
		if rhs, ok := assigns[net]; ok {
			switch rhs {
			case "0":
				id := n.AddConst(false)
				n.SetName(id, net)
				ids[net] = id
				return id, nil
			case "1":
				id := n.AddConst(true)
				n.SetName(id, net)
				ids[net] = id
				return id, nil
			default:
				// Net alias: materialize a named Buf so the alias keeps its
				// own node, mirroring how ReadBLIF rebuilds the `1 1` alias
				// covers WriteBLIF emits. Both round trips then produce the
				// same structure (and the same Fingerprint).
				src, err := resolve(unescapeTok(rhs), trail)
				if err != nil {
					return Nil, err
				}
				id := n.AddNamedGate(net, Buf, src)
				ids[net] = id
				return id, nil
			}
		}
		gi, ok := driver[net]
		if !ok {
			return Nil, fmt.Errorf("verilog: net %q has no driver", net)
		}
		g := gates[gi]
		fan := make([]ID, 0, len(g.ins))
		for _, in := range g.ins {
			fid, err := resolve(in, trail)
			if err != nil {
				return Nil, err
			}
			fan = append(fan, fid)
		}
		var id ID
		if g.kind == Lut {
			id = n.AddNamedLut(net, g.mask, fan...)
		} else {
			id = n.AddNamedGate(net, g.kind, fan...)
		}
		ids[net] = id
		return id, nil
	}

	// Resolve every declared wire and output, plus all gate outputs.
	all := append(append([]string{}, wires...), outputs...)
	for _, g := range gates {
		all = append(all, g.out)
	}
	sort.Strings(all)
	for _, net := range all {
		if _, err := resolve(net, map[string]bool{}); err != nil {
			return nil, err
		}
	}

	// Patch latch D inputs.
	for _, g := range gates {
		if g.kind != Latch {
			continue
		}
		d, err := resolve(g.ins[0], map[string]bool{})
		if err != nil {
			return nil, err
		}
		n.SetLatchD(ids[g.out], d)
	}

	for _, out := range outputs {
		id, ok := ids[out]
		if !ok {
			return nil, fmt.Errorf("verilog: output %q has no driver", out)
		}
		n.MarkOutput(out, id)
	}
	return n, nil
}

func tokenize(r io.Reader) ([]string, error) {
	br := bufio.NewReader(r)
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for {
		c, _, err := br.ReadRune()
		if err == io.EOF {
			flush()
			return toks, nil
		}
		if err != nil {
			return nil, err
		}
		switch {
		case c == '/':
			// Possible // comment.
			c2, _, err2 := br.ReadRune()
			if err2 == nil && c2 == '/' {
				flush()
				for {
					c3, _, err3 := br.ReadRune()
					if err3 != nil || c3 == '\n' {
						break
					}
				}
				continue
			}
			if err2 == nil {
				if uerr := br.UnreadRune(); uerr != nil {
					return nil, uerr
				}
			}
			cur.WriteRune(c)
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			flush()
		case c == '\\' && cur.Len() == 0:
			// Escaped identifier: backslash through the next whitespace,
			// punctuation included.
			cur.WriteRune(c)
			for {
				c2, _, err2 := br.ReadRune()
				if err2 == io.EOF {
					break
				}
				if err2 != nil {
					return nil, err2
				}
				if c2 == ' ' || c2 == '\t' || c2 == '\n' || c2 == '\r' {
					break
				}
				cur.WriteRune(c2)
			}
			flush()
		case c == '(' || c == ')' || c == ',' || c == ';' || c == '=':
			flush()
			toks = append(toks, string(c))
		default:
			cur.WriteRune(c)
		}
	}
}
