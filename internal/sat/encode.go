package sat

// This file implements Tseitin encoding of netlist cones into CNF: one cone
// walker and one per-kind gate encoder, shared by the persistent encoding
// (LitOf) and the fresh cofactor copies (LitOfFixed) that the counter,
// shift-register and 2QBF checks compare.

import (
	"netlistre/internal/netlist"
)

// Encoder incrementally encodes the combinational logic of a netlist into a
// Solver. Every netlist node gets at most one literal in the persistent
// encoding; cones are encoded on demand and shared between queries on the
// same Encoder.
type Encoder struct {
	S  *Solver
	nl *netlist.Netlist

	lits map[netlist.ID]Lit
	// constT is a literal forced true, allocated on first use; every
	// constant node of every copy maps to it or its negation.
	constT    Lit
	haveConst bool
}

// NewEncoder returns an encoder targeting the given solver.
func NewEncoder(s *Solver, nl *netlist.Netlist) *Encoder {
	return &Encoder{S: s, nl: nl, lits: make(map[netlist.ID]Lit)}
}

// LitOf returns the solver literal for node id, encoding its combinational
// cone if necessary. Inputs and latches become free variables.
func (e *Encoder) LitOf(id netlist.ID) Lit {
	if l, ok := e.lits[id]; ok {
		return l
	}
	return e.walk(id, e.lits, e.freeVar)
}

// VarOf returns the solver variable of an already-encoded node. For a
// boundary signal (an input or latch) the literal LitOf returned is that
// variable's positive literal, so Solver.Value of the variable is the
// signal's value in a model. Interior buffers, inverters and constants
// share their fanin's or the constant's variable, possibly negated.
func (e *Encoder) VarOf(id netlist.ID) (int, bool) {
	l, ok := e.lits[id]
	return l.Var(), ok
}

// LitOfFixed encodes a FRESH copy of root's cone in which the boundary
// signals listed in fixed are replaced by constants, while all other
// boundary signals share this encoder's variables (through LitOf). Each
// call creates new internal variables, so different cofactor copies of the
// same cone do not interfere — this is how the counter/shift-register
// checks compare cofactors under conflicting cubes (Sections III-A.2 and
// III-B.2), and how the 2QBF synthesis solver adds one copy per
// counterexample.
func (e *Encoder) LitOfFixed(root netlist.ID, fixed map[netlist.ID]bool) Lit {
	return e.walk(root, make(map[netlist.ID]Lit), func(id netlist.ID) Lit {
		if v, isFixed := fixed[id]; isFixed {
			return e.constLit(v)
		}
		return e.LitOf(id)
	})
}

// walk encodes root's cone into lits: nodes already in lits are reused,
// boundary signals get leaf(id), constants the encoder's constant literal,
// and every other gate fresh clauses over its fanins' literals.
func (e *Encoder) walk(root netlist.ID, lits map[netlist.ID]Lit, leaf func(netlist.ID) Lit) Lit {
	// Iterative DFS so ripple chains do not overflow the stack.
	type frame struct {
		id       netlist.ID
		expanded bool
	}
	stack := []frame{{root, false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		if _, done := lits[f.id]; done {
			stack = stack[:len(stack)-1]
			continue
		}
		node := e.nl.Node(f.id)
		switch {
		case node.Kind.IsConeInput():
			lits[f.id] = leaf(f.id)
		case node.Kind == netlist.Const0 || node.Kind == netlist.Const1:
			lits[f.id] = e.constLit(node.Kind == netlist.Const1)
		case !f.expanded:
			stack[len(stack)-1].expanded = true
			for _, fi := range node.Fanin {
				if _, done := lits[fi]; !done {
					stack = append(stack, frame{fi, false})
				}
			}
			continue
		default:
			lits[f.id] = e.encodeGate(node, lits)
		}
		stack = stack[:len(stack)-1]
	}
	return lits[root]
}

func (e *Encoder) freeVar(netlist.ID) Lit { return MkLit(e.S.NewVar(), false) }

func (e *Encoder) constLit(v bool) Lit {
	if !e.haveConst {
		e.constT = MkLit(e.S.NewVar(), false)
		e.S.AddClause(e.constT)
		e.haveConst = true
	}
	if v {
		return e.constT
	}
	return e.constT.Neg()
}

// encodeGate encodes one gate over its fanins' literals and returns its
// output literal: buffers and inverters pass their fanin through, every
// other kind gets a fresh variable.
func (e *Encoder) encodeGate(node *netlist.Node, lits map[netlist.ID]Lit) Lit {
	ins := make([]Lit, len(node.Fanin))
	for i, f := range node.Fanin {
		ins[i] = lits[f]
	}
	switch node.Kind {
	case netlist.Buf:
		return ins[0]
	case netlist.Not:
		return ins[0].Neg()
	}
	out := MkLit(e.S.NewVar(), false)
	o := out
	switch node.Kind {
	case netlist.Nand, netlist.Nor, netlist.Xnor:
		o = out.Neg()
	}
	switch node.Kind {
	case netlist.And, netlist.Nand:
		e.andGate(o, ins)
	case netlist.Or, netlist.Nor:
		e.orGate(o, ins)
	case netlist.Xor, netlist.Xnor:
		// Chain xors pairwise through auxiliary variables.
		acc := ins[0]
		for i := 1; i < len(ins)-1; i++ {
			aux := MkLit(e.S.NewVar(), false)
			e.xorGate(aux, acc, ins[i])
			acc = aux
		}
		e.xorGate(o, acc, ins[len(ins)-1])
	case netlist.Lut:
		e.lutGate(o, node.Mask, ins)
	default:
		panic("sat: cannot encode " + node.Kind.String())
	}
	return out
}

// lutGate encodes o <-> mask(ins) with one clause per truth-table row: when
// the inputs match row r the output is forced to the mask bit. 2^k clauses
// of k+1 literals each, k <= 6.
func (e *Encoder) lutGate(o Lit, mask uint64, ins []Lit) {
	rows := uint(1) << uint(len(ins))
	clause := make([]Lit, 0, len(ins)+1)
	for r := uint(0); r < rows; r++ {
		clause = clause[:0]
		for j, in := range ins {
			if r>>uint(j)&1 == 1 {
				clause = append(clause, in.Neg())
			} else {
				clause = append(clause, in)
			}
		}
		if mask>>r&1 == 1 {
			clause = append(clause, o)
		} else {
			clause = append(clause, o.Neg())
		}
		e.S.AddClause(clause...)
	}
}

// andGate encodes o <-> AND(ins).
func (e *Encoder) andGate(o Lit, ins []Lit) {
	long := make([]Lit, 0, len(ins)+1)
	for _, in := range ins {
		e.S.AddClause(o.Neg(), in) // o -> in
		long = append(long, in.Neg())
	}
	long = append(long, o)
	e.S.AddClause(long...) // all ins -> o
}

// orGate encodes o <-> OR(ins).
func (e *Encoder) orGate(o Lit, ins []Lit) {
	long := make([]Lit, 0, len(ins)+1)
	for _, in := range ins {
		e.S.AddClause(o, in.Neg()) // in -> o
		long = append(long, in)
	}
	long = append(long, o.Neg())
	e.S.AddClause(long...) // o -> some in
}

// xorGate encodes o <-> a XOR b.
func (e *Encoder) xorGate(o, a, b Lit) {
	e.S.AddClause(o.Neg(), a, b)
	e.S.AddClause(o.Neg(), a.Neg(), b.Neg())
	e.S.AddClause(o, a.Neg(), b)
	e.S.AddClause(o, a, b.Neg())
}

// NotEqualWitness returns a literal that is true iff a != b (a fresh miter
// output).
func (e *Encoder) NotEqualWitness(a, b Lit) Lit {
	x := MkLit(e.S.NewVar(), false)
	e.xorGate(x, a, b)
	return x
}
