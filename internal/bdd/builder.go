package bdd

import (
	"netlistre/internal/netlist"
)

// Builder constructs BDDs for netlist nodes over a shared variable space.
// Boundary signals (primary inputs and latch outputs) are mapped to BDD
// variables on first use, so multiple cones built through the same Builder
// share variables — a requirement for the cross-latch equivalence checks in
// the counter and shift-register analyses.
type Builder struct {
	M  *Manager
	nl *netlist.Netlist

	// Leaf, when set, also cuts cones at the nodes for which it returns
	// true: they become variables like boundary signals. Constants fold to
	// the terminals before Leaf is consulted, so they are never cut.
	Leaf func(netlist.ID) bool

	varOf map[netlist.ID]int
	ids   []netlist.ID // inverse of varOf
	memo  map[netlist.ID]Ref
}

// NewBuilder returns a builder over the given netlist with an empty
// variable space.
func NewBuilder(m *Manager, nl *netlist.Netlist) *Builder {
	return &Builder{
		M:     m,
		nl:    nl,
		varOf: make(map[netlist.ID]int),
		memo:  make(map[netlist.ID]Ref),
	}
}

// VarOf returns the BDD variable index for boundary signal (or Leaf cut)
// id, allocating one if needed.
func (b *Builder) VarOf(id netlist.ID) int {
	if v, ok := b.varOf[id]; ok {
		return v
	}
	v := b.M.AddVar()
	b.varOf[id] = v
	b.ids = append(b.ids, id)
	return v
}

// SignalOf returns the boundary signal mapped to BDD variable v.
func (b *Builder) SignalOf(v int) netlist.ID { return b.ids[v] }

// HasVar reports whether boundary signal id has been assigned a variable.
func (b *Builder) HasVar(id netlist.ID) (int, bool) {
	v, ok := b.varOf[id]
	return v, ok
}

// Build returns the BDD of node id's combinational function over the
// boundary signals of its cone. Results are memoized across calls.
// Variables are allocated in depth-first order with fanin 0 visited first.
func (b *Builder) Build(id netlist.ID) Ref {
	if r, ok := b.memo[id]; ok {
		return r
	}
	// Iterative post-order traversal to avoid deep recursion on long
	// chains (e.g. ripple carries).
	type frame struct {
		id       netlist.ID
		expanded bool
	}
	stack := []frame{{id, false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		if _, done := b.memo[f.id]; done {
			stack = stack[:len(stack)-1]
			continue
		}
		node := b.nl.Node(f.id)
		switch {
		case node.Kind == netlist.Const0:
			b.memo[f.id] = False
		case node.Kind == netlist.Const1:
			b.memo[f.id] = True
		case node.Kind.IsConeInput() || b.Leaf != nil && b.Leaf(f.id):
			b.memo[f.id] = b.M.Var(b.VarOf(f.id))
		case !f.expanded:
			stack[len(stack)-1].expanded = true
			// Push in reverse so fanin 0 is popped, and numbered, first.
			for i := len(node.Fanin) - 1; i >= 0; i-- {
				if _, done := b.memo[node.Fanin[i]]; !done {
					stack = append(stack, frame{node.Fanin[i], false})
				}
			}
			continue
		default:
			b.memo[f.id] = b.combine(node)
		}
		stack = stack[:len(stack)-1]
	}
	return b.memo[id]
}

func (b *Builder) combine(node *netlist.Node) Ref {
	m := b.M
	in := func(i int) Ref { return b.memo[node.Fanin[i]] }
	switch node.Kind {
	case netlist.Not:
		return m.Not(in(0))
	case netlist.Buf:
		return in(0)
	case netlist.And, netlist.Nand:
		r := True
		for i := range node.Fanin {
			r = m.And(r, in(i))
		}
		if node.Kind == netlist.Nand {
			r = m.Not(r)
		}
		return r
	case netlist.Or, netlist.Nor:
		r := False
		for i := range node.Fanin {
			r = m.Or(r, in(i))
		}
		if node.Kind == netlist.Nor {
			r = m.Not(r)
		}
		return r
	case netlist.Xor, netlist.Xnor:
		r := False
		for i := range node.Fanin {
			r = m.Xor(r, in(i))
		}
		if node.Kind == netlist.Xnor {
			r = m.Not(r)
		}
		return r
	case netlist.Lut:
		return lutRef(m, node.Mask, len(node.Fanin), in)
	}
	panic("bdd: cannot build " + node.Kind.String())
}

// lutRef builds the BDD of a k-input truth-table cell by Shannon recursion
// on the packed mask: mask rows are split on the last fanin's function and
// the halves recombined with an ite over already-built fanin BDDs.
func lutRef(m *Manager, mask uint64, k int, in func(int) Ref) Ref {
	if k == 0 {
		if mask&1 == 1 {
			return True
		}
		return False
	}
	half := uint(1) << uint(k-1)
	lo := lutRef(m, mask, k-1, in)
	hi := lutRef(m, mask>>half, k-1, in)
	s := in(k - 1)
	return m.Or(m.And(s, hi), m.And(m.Not(s), lo))
}
