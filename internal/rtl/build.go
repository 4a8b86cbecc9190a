package rtl

// Netlist construction for the elaborator: demand-driven resolution of
// every scanned definition, template expansion, and the evaluator for
// always-block next-state expressions. Gate shapes built here mirror
// internal/gen (mux legs, ripple increments) so a re-analysis of the
// elaborated netlist recovers the same structures.

import (
	"fmt"

	"netlistre/internal/netlist"
)

// builder resolves net names to node IDs over a growing netlist. Each
// netDef carries its own resolution state and node, so a reference costs
// one read of the name map.
type builder struct {
	e    *elab
	nl   *netlist.Netlist
	ph   netlist.ID // latch D placeholder; Nil until first needed
	path []string   // current resolution chain, for cycle reports

	// pendingD queues residual latch D cones: they are sequential, so
	// resolving them inline would thread an unrelated combinational
	// context (and possibly a half-expanded instance) through the guard.
	pendingD []pendingLatch
}

// pendingLatch is a residual dff awaiting its D cone.
type pendingLatch struct {
	lat   netlist.ID
	dName string
}

func (e *elab) build() (*netlist.Netlist, error) {
	b := &builder{
		e:  e,
		nl: netlist.New(e.design),
		ph: netlist.Nil,
	}
	// Every defined net is a named node; template and always-block
	// expansions add more.
	b.nl.Grow(len(e.defs), len(e.defs))
	// Inputs first, in declaration order; the clock is structural only.
	for _, in := range e.inputs {
		if in == e.clk {
			continue
		}
		e.defs[in].set(b.nl.AddInput(in))
	}
	if e.clk != "" {
		if d, ok := e.defs[e.clk]; !ok || d.kind != defInput {
			return nil, fmt.Errorf("rtl: clock %s is not an input", e.clk)
		}
	}
	// Register latches next so feedback paths resolve.
	for _, rd := range e.regs {
		if rd.qNames == nil {
			return nil, fmt.Errorf("rtl: register %s has no unpack alias", rd.name)
		}
		if rd.expr == nil {
			return nil, fmt.Errorf("rtl: register %s is never assigned", rd.name)
		}
		rd.lats = make([]netlist.ID, rd.width)
		for i, qn := range rd.qNames {
			rd.lats[i] = b.nl.AddNamedLatch(qn, b.placeholder())
			e.defs[qn].set(rd.lats[i])
		}
	}
	// Materialize every statement-defined net in file order.
	for _, d := range e.order {
		if _, err := b.resolveDef(d); err != nil {
			return nil, err
		}
	}
	// Residual latch D cones (resolving one may surface further dffs).
	for i := 0; i < len(b.pendingD); i++ {
		pd := b.pendingD[i]
		dd, err := b.resolve(pd.dName)
		if err != nil {
			return nil, err
		}
		b.nl.SetLatchD(pd.lat, dd)
	}
	// Register next-state logic.
	for _, rd := range e.regs {
		d, err := b.eval(rd.expr, rd)
		if err != nil {
			return nil, fmt.Errorf("rtl: register %s: %w", rd.name, err)
		}
		if len(d) != rd.width {
			return nil, fmt.Errorf("rtl: register %s: next-state width %d, want %d",
				rd.name, len(d), rd.width)
		}
		for i, lat := range rd.lats {
			b.nl.SetLatchD(lat, d[i])
		}
	}
	// Outputs, in declaration order.
	for _, on := range e.outputs {
		id, err := b.resolve(on)
		if err != nil {
			return nil, err
		}
		b.nl.MarkOutput(on, id)
	}
	if err := b.nl.Validate(); err != nil {
		return nil, fmt.Errorf("rtl: elaborated netlist invalid: %w", err)
	}
	return b.nl, nil
}

// placeholder returns a safe temporary latch D, patched by SetLatchD.
func (b *builder) placeholder() netlist.ID {
	if b.ph == netlist.Nil {
		if ins := b.nl.Inputs(); len(ins) > 0 {
			b.ph = ins[0]
		} else {
			b.ph = b.nl.AddConst(false)
		}
	}
	return b.ph
}

// set records the node a net resolved to.
func (d *netDef) set(id netlist.ID) { d.id, d.state = id, resolved }

// resolve materializes the node for a net name.
func (b *builder) resolve(name string) (netlist.ID, error) {
	d, ok := b.e.defs[name]
	if !ok {
		return netlist.Nil, fmt.Errorf("rtl: undefined net %s", name)
	}
	return b.resolveDef(d)
}

// resolveDef materializes the node for d, guarding against combinational
// cycles. An error abandons the build, so the guard is not unwound then.
func (b *builder) resolveDef(d *netDef) (netlist.ID, error) {
	switch d.state {
	case resolved:
		return d.id, nil
	case onStack:
		return netlist.Nil, fmt.Errorf("rtl: combinational cycle through %s (path %v)", d.name, b.path)
	}
	d.state = onStack
	b.path = append(b.path, d.name)
	id, err := b.materialize(d)
	if err != nil {
		return netlist.Nil, err
	}
	b.path = b.path[:len(b.path)-1]
	d.set(id)
	return id, nil
}

// materialize builds the node of an unresolved definition.
func (b *builder) materialize(d *netDef) (netlist.ID, error) {
	name := d.name
	switch d.kind {
	case defConst:
		id := b.nl.AddConst(d.cval)
		if b.nl.Node(id).Name == "" {
			b.nl.SetName(id, name)
		}
		return id, nil
	case defGate, defLut:
		fanin := make([]netlist.ID, len(d.args))
		for i, a := range d.args {
			f, err := b.resolve(a)
			if err != nil {
				return netlist.Nil, err
			}
			fanin[i] = f
		}
		if d.kind == defLut {
			return b.nl.AddNamedLut(name, d.mask, fanin...), nil
		}
		return b.nl.AddNamedGate(name, d.gate, fanin...), nil
	case defDff:
		id := b.nl.AddNamedLatch(name, b.placeholder())
		d.set(id) // break the feedback before resolving D
		b.pendingD = append(b.pendingD, pendingLatch{lat: id, dName: d.args[0]})
		return id, nil
	case defAlias:
		if d.reg != nil {
			// Unpack alias bit; latches were created upfront.
			return netlist.Nil, fmt.Errorf("rtl: unpack alias %s resolved before registers", name)
		}
		return b.resolve(d.args[0])
	case defInst:
		if err := b.expand(d.inst); err != nil {
			return netlist.Nil, err
		}
		// expand resolved every output net it drove, this one included.
		if d.state != resolved {
			return netlist.Nil, fmt.Errorf("rtl: instance %s did not drive %s", d.inst.name, name)
		}
		return d.id, nil
	case defReg:
		return netlist.Nil, fmt.Errorf("rtl: raw register %s referenced as a scalar", name)
	default: // inputs resolve when the build starts
		return netlist.Nil, fmt.Errorf("rtl: unresolvable net %s", name)
	}
}

// expand builds one template instance's gates and names its outputs.
func (b *builder) expand(inst *instDef) error {
	if inst.done {
		return nil
	}
	inst.done = true
	ports := map[string][]netlist.ID{}
	for _, pw := range inst.tmpl.portWidths() {
		if pw.out {
			continue
		}
		ids := make([]netlist.ID, len(inst.conns[pw.name]))
		for i, n := range inst.conns[pw.name] {
			id, err := b.resolve(n)
			if err != nil {
				return err
			}
			ids[i] = id
		}
		ports[pw.name] = ids
	}
	outs, err := expandTemplate(b.nl, inst.tmpl, ports)
	if err != nil {
		return err
	}
	for _, pw := range inst.tmpl.portWidths() {
		if !pw.out {
			continue
		}
		roots := outs[pw.name]
		if len(roots) != pw.width {
			return fmt.Errorf("rtl: template %s expansion drove %d bits on %s, want %d",
				inst.name, len(roots), pw.name, pw.width)
		}
		for i, n := range inst.conns[pw.name] {
			b.nl.SetName(roots[i], n)
			b.e.defs[n].set(roots[i])
		}
	}
	return nil
}

// --- always-block expression evaluation ---

// eval parses and builds a next-state expression, returning its bits LSB
// first. rd provides the register the expression belongs to (its name
// resolves to the current latch outputs).
func (b *builder) eval(toks []token, rd *regDef) ([]netlist.ID, error) {
	p := &exprParser{b: b, toks: toks, rd: rd}
	v, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("trailing tokens in expression")
	}
	return v, nil
}

type exprParser struct {
	b    *builder
	toks []token
	rd   *regDef
	pos  int
}

func (p *exprParser) peek() byte {
	if p.pos >= len(p.toks) {
		return 0
	}
	return p.toks[p.pos].kind
}

func (p *exprParser) next() token {
	t := p.toks[p.pos]
	p.pos++
	return t
}

// parseExpr := sum ('?' parseExpr ':' parseExpr)?
func (p *exprParser) parseExpr() ([]netlist.ID, error) {
	cond, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	if p.peek() != '?' {
		return cond, nil
	}
	p.next()
	if len(cond) != 1 {
		return nil, fmt.Errorf("ternary condition must be one bit")
	}
	thenV, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek() != ':' {
		return nil, fmt.Errorf("missing ':' in ternary")
	}
	p.next()
	elseV, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if len(thenV) != len(elseV) {
		return nil, fmt.Errorf("ternary arm widths differ (%d vs %d)", len(thenV), len(elseV))
	}
	nl := p.b.nl
	ns := nl.AddGate(netlist.Not, cond[0])
	out := make([]netlist.ID, len(thenV))
	for i := range thenV {
		out[i] = nl.AddGate(netlist.Or,
			nl.AddGate(netlist.And, cond[0], thenV[i]),
			nl.AddGate(netlist.And, ns, elseV[i]))
	}
	return out, nil
}

// parseSum := operand (('+'|'-') literal-one)?
func (p *exprParser) parseSum() ([]netlist.ID, error) {
	v, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	k := p.peek()
	if k != '+' && k != '-' {
		return v, nil
	}
	p.next()
	if p.peek() != 'n' {
		return nil, fmt.Errorf("expected literal after %c", k)
	}
	w, val, err := parseLiteral(p.next())
	if err != nil {
		return nil, err
	}
	if val != 1 || w != len(v) {
		return nil, fmt.Errorf("only +/- %d'd1 steps are supported", len(v))
	}
	if k == '+' {
		return p.b.increment(v), nil
	}
	return p.b.decrement(v), nil
}

func (p *exprParser) parseOperand() ([]netlist.ID, error) {
	switch p.peek() {
	case '(':
		p.next()
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("missing ')'")
		}
		p.next()
		return v, nil
	case '{':
		p.next()
		var partsMSB [][]netlist.ID
		for {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			partsMSB = append(partsMSB, v)
			if p.peek() == ',' {
				p.next()
				continue
			}
			break
		}
		if p.peek() != '}' {
			return nil, fmt.Errorf("missing '}'")
		}
		p.next()
		var out []netlist.ID
		for i := len(partsMSB) - 1; i >= 0; i-- {
			out = append(out, partsMSB[i]...)
		}
		return out, nil
	case 'n':
		w, val, err := parseLiteral(p.next())
		if err != nil {
			return nil, err
		}
		if val != 0 {
			return nil, fmt.Errorf("only zero literals appear as operands")
		}
		out := make([]netlist.ID, w)
		z := p.b.nl.AddConst(false)
		for i := range out {
			out[i] = z
		}
		return out, nil
	case 'i':
		name := p.next().text
		d, ok := p.b.e.defs[name]
		if !ok {
			return nil, fmt.Errorf("rtl: undefined net %s", name)
		}
		if d.kind == defReg {
			bits := append([]netlist.ID(nil), d.reg.lats...)
			if p.peek() == '[' {
				p.next()
				if p.peek() != 'n' {
					return nil, fmt.Errorf("malformed slice")
				}
				hi := p.next()
				if p.peek() != ':' {
					return nil, fmt.Errorf("malformed slice")
				}
				p.next()
				if p.peek() != 'n' {
					return nil, fmt.Errorf("malformed slice")
				}
				lo := p.next()
				if p.peek() != ']' {
					return nil, fmt.Errorf("malformed slice")
				}
				p.next()
				h, err1 := atoiTok(hi)
				l, err2 := atoiTok(lo)
				if err1 != nil || err2 != nil || l < 0 || h < l || h >= len(bits) {
					return nil, fmt.Errorf("slice [%s:%s] out of range", hi.text, lo.text)
				}
				bits = bits[l : h+1]
			}
			return bits, nil
		}
		id, err := p.b.resolveDef(d)
		if err != nil {
			return nil, err
		}
		return []netlist.ID{id}, nil
	}
	return nil, fmt.Errorf("unexpected token in expression")
}

func atoiTok(t token) (int, error) {
	var n int
	for i := 0; i < len(t.text); i++ {
		c := t.text[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("not a plain number: %s", t.text)
		}
		n = n*10 + int(c-'0')
		if n > 1<<20 {
			return 0, fmt.Errorf("number too large: %s", t.text)
		}
	}
	return n, nil
}

// increment builds v + 1 as a ripple chain: out_i = v_i ^ AND(v_0..v_i-1).
func (b *builder) increment(v []netlist.ID) []netlist.ID {
	nl := b.nl
	out := make([]netlist.ID, len(v))
	out[0] = nl.AddGate(netlist.Not, v[0])
	carry := v[0]
	for i := 1; i < len(v); i++ {
		out[i] = nl.AddGate(netlist.Xor, v[i], carry)
		if i < len(v)-1 {
			carry = nl.AddGate(netlist.And, carry, v[i])
		}
	}
	return out
}

// decrement builds v - 1: out_i = v_i ^ AND(~v_0..~v_i-1).
func (b *builder) decrement(v []netlist.ID) []netlist.ID {
	nl := b.nl
	out := make([]netlist.ID, len(v))
	nb := nl.AddGate(netlist.Not, v[0])
	out[0] = nb
	carry := nb
	for i := 1; i < len(v); i++ {
		out[i] = nl.AddGate(netlist.Xor, v[i], carry)
		if i < len(v)-1 {
			carry = nl.AddGate(netlist.And, carry, nl.AddGate(netlist.Not, v[i]))
		}
	}
	return out
}
