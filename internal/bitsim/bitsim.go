// Package bitsim implements 64-lane bit-parallel three-valued simulation:
// one machine word per signal simulates 64 independent input patterns at
// once. Signals are dual-rail encoded — a value word and an unknown mask —
// so the Kleene {0, 1, X} algebra costs a handful of word operations per
// gate regardless of how many patterns are in flight.
//
// The engine is used where the portfolio needs bulk semantic evidence
// cheaply: refuting candidate module matches before the QBF solver runs
// (internal/modmatch), refuting decoder/popcount candidates before BDDs are
// built (internal/support), cross-checking cut functions against direct
// cone evaluation, and checking word propagations (internal/words). The
// last runs the paper's five-valued {0, 1, D, D̄, X} symbolic simulation
// in the D-calculus pair encoding (PairCone): each five-valued signal is a
// pair of lanes holding its D=0 and D=1 values, so one pass checks Pairs
// independent control assignments. The property tests in this package pin
// the encoding to a scalar five-valued reference, node for node.
package bitsim

import (
	"netlistre/internal/netlist"
	"netlistre/internal/truth"
)

// Lanes is the number of input patterns one Vector carries.
const Lanes = 64

// Vector is 64 lanes of a three-valued signal. Lane i is unknown (X) when
// bit i of Unk is set, otherwise it carries bit i of Val. The invariant
// Val & Unk == 0 holds for every Vector the engine produces.
type Vector struct {
	Val uint64
	Unk uint64
}

// Known returns a fully-known vector with the given lane values.
func Known(val uint64) Vector { return Vector{Val: val} }

// Unknown returns the all-X vector.
func Unknown() Vector { return Vector{Unk: ^uint64(0)} }

// Get returns lane i as (value, known).
func (v Vector) Get(i int) (bool, bool) {
	return v.Val>>uint(i)&1 == 1, v.Unk>>uint(i)&1 == 0
}

// Not complements the known lanes.
func (v Vector) Not() Vector {
	return Vector{Val: ^v.Val &^ v.Unk, Unk: v.Unk}
}

// And is the 64-lane Kleene conjunction: a known 0 on either side forces a
// known 0 regardless of the other side being X.
func (a Vector) And(b Vector) Vector {
	known0 := (^a.Val &^ a.Unk) | (^b.Val &^ b.Unk)
	unk := (a.Unk | b.Unk) &^ known0
	return Vector{Val: a.Val & b.Val, Unk: unk}
}

// Or is the 64-lane Kleene disjunction.
func (a Vector) Or(b Vector) Vector {
	known1 := a.Val | b.Val
	unk := (a.Unk | b.Unk) &^ known1
	return Vector{Val: known1, Unk: unk}
}

// Xor is the 64-lane Kleene exclusive-or: any X poisons the lane.
func (a Vector) Xor(b Vector) Vector {
	unk := a.Unk | b.Unk
	return Vector{Val: (a.Val ^ b.Val) &^ unk, Unk: unk}
}

// EvalGate evaluates one gate over vectors.
func EvalGate(kind netlist.Kind, in []Vector) Vector {
	switch kind {
	case netlist.Const0:
		return Known(0)
	case netlist.Const1:
		return Known(^uint64(0))
	case netlist.Not:
		return in[0].Not()
	case netlist.Buf:
		return in[0]
	case netlist.And, netlist.Nand:
		acc := Known(^uint64(0))
		for _, v := range in {
			acc = acc.And(v)
		}
		if kind == netlist.Nand {
			acc = acc.Not()
		}
		return acc
	case netlist.Or, netlist.Nor:
		acc := Known(0)
		for _, v := range in {
			acc = acc.Or(v)
		}
		if kind == netlist.Nor {
			acc = acc.Not()
		}
		return acc
	case netlist.Xor, netlist.Xnor:
		acc := Known(0)
		for _, v := range in {
			acc = acc.Xor(v)
		}
		if kind == netlist.Xnor {
			acc = acc.Not()
		}
		return acc
	}
	panic("bitsim: EvalGate on " + kind.String())
}

// EvalLut evaluates a k-input truth-table cell over vectors by Shannon
// recursion on the packed mask, selecting each cofactor pair with the
// consensus form of the Kleene multiplexer (s&hi | ~s&lo | hi&lo). The extra
// consensus term makes the select exact when s is X but both cofactors
// agree, which by induction makes the whole evaluation the fully precise
// three-valued extension of the mask: every lane reaches the answer an
// exhaustive enumeration of its X inputs would.
func EvalLut(mask uint64, in []Vector) Vector { return evalLut(mask, in, len(in)) }

// evalLut evaluates the cofactor of mask over the first j inputs.
func evalLut(m uint64, in []Vector, j int) Vector {
	if j == 0 {
		if m&1 == 1 {
			return Known(^uint64(0))
		}
		return Known(0)
	}
	lo := evalLut(m, in, j-1)
	hi := evalLut(m>>(uint(1)<<uint(j-1)), in, j-1)
	s := in[j-1]
	return s.And(hi).Or(s.Not().And(lo)).Or(hi.And(lo))
}

// Run evaluates the combinational logic of nl with the signals in assign
// forced to the given vectors. Assignments may target ANY node: an assigned
// internal node is cut loose from its own logic and treated as a free input,
// which is how the paper's word propagation simulates the "local netlist"
// around a word (Section II-C.1). Unassigned boundary signals are all-X. The
// returned slice is indexed by node ID.
func Run(nl *netlist.Netlist, assign map[netlist.ID]Vector) []Vector {
	vals := make([]Vector, nl.Len())
	var buf []Vector
	for _, id := range nl.TopoOrder() {
		if v, ok := assign[id]; ok {
			vals[id] = v
			continue
		}
		node := nl.Node(id)
		switch {
		case node.Kind.IsConeInput():
			vals[id] = Unknown()
		default:
			buf = buf[:0]
			for _, f := range node.Fanin {
				buf = append(buf, vals[f])
			}
			if node.Kind == netlist.Lut {
				vals[id] = EvalLut(node.Mask, buf)
			} else {
				vals[id] = EvalGate(node.Kind, buf)
			}
		}
	}
	return vals
}

// RunCone evaluates only the transitive fan-in cones of roots, stopping at
// assigned nodes and cone inputs, and returns the values of the visited
// nodes. It avoids the whole-netlist sweep of Run when the caller needs a
// few outputs of a large design — the shape of the candidate-filtering
// loops in modmatch and support.
func RunCone(nl *netlist.Netlist, roots []netlist.ID, assign map[netlist.ID]Vector) map[netlist.ID]Vector {
	vals := make(map[netlist.ID]Vector, 4*len(roots))
	var eval func(id netlist.ID) Vector
	buf := make([]Vector, 0, 8)
	eval = func(id netlist.ID) Vector {
		if v, ok := vals[id]; ok {
			return v
		}
		var v Vector
		if av, ok := assign[id]; ok {
			v = av
		} else if node := nl.Node(id); node.Kind.IsConeInput() {
			v = Unknown()
		} else {
			// Resolve fanins first (recursively), then fold the gate.
			for _, f := range node.Fanin {
				eval(f)
			}
			buf = buf[:0]
			for _, f := range node.Fanin {
				buf = append(buf, vals[f])
			}
			if node.Kind == netlist.Lut {
				v = EvalLut(node.Mask, buf)
			} else {
				v = EvalGate(node.Kind, buf)
			}
		}
		vals[id] = v
		return v
	}
	for _, r := range roots {
		eval(r)
	}
	return vals
}

// The D-calculus pair encoding. A five-valued signal of the paper's
// symbolic simulation (Section II-C.1) occupies two adjacent lanes: lane 2k
// holds its value when the symbol D is 0, lane 2k+1 its value when D is 1.
// So 0 = (0,0), 1 = (1,1), D = (0,1), D̄ = (1,0) and X = (X,X), and one
// Vector carries Pairs independent five-valued signals. The Kleene
// operators are exact on each rail; collapsing, after every node, a pair
// with an X on either rail to X on both then makes each gate and LUT cell
// compute exactly the D-calculus, which has no value for "known under one
// value of D only".

// Pairs is the number of five-valued signals a Vector carries in the pair
// encoding.
const Pairs = Lanes / 2

const (
	evenLanes uint64 = 0x5555555555555555
	oddLanes  uint64 = 0xaaaaaaaaaaaaaaaa
)

// PairD returns D in every pair. Its complement, PairD().Not(), is D̄.
func PairD() Vector { return Known(oddLanes) }

// collapse widens every pair with an X on either rail to X on both.
func (v Vector) collapse() Vector {
	u := v.Unk
	u |= (u&evenLanes)<<1 | (u&oddLanes)>>1
	return Vector{Val: v.Val &^ u, Unk: u}
}

// SymbolicPairs returns the pairs of v that hold D or D̄, as a mask with bit
// 2k set for pair k. Such a pair is D̄ when its lane 2k is a known 1.
func (v Vector) SymbolicPairs() uint64 {
	return ^(v.Unk | v.Unk>>1) & (v.Val ^ v.Val>>1) & evenLanes
}

// PairString renders pair k of v as 0, 1, D, D̄ or X.
func (v Vector) PairString(k int) string {
	d0, known0 := v.Get(2 * k)
	d1, known1 := v.Get(2*k + 1)
	switch {
	case !known0 || !known1:
		return "X"
	case d0 == d1 && d0:
		return "1"
	case d0 == d1:
		return "0"
	case d1:
		return "D"
	}
	return "D̄"
}

// PairCone is the transitive fan-in cone of some roots, compiled once for
// repeated evaluation in the pair encoding. The cone stops at assigned
// nodes, which hold their assigned vectors (cut loose from their own logic,
// as in Run), and at the other cone inputs, which are X. Between
// evaluations any node of the cone can be forced lane by lane, so one
// compiled cone checks Pairs control assignments per Eval.
type PairCone struct {
	nodes []pairNode // topological order
	fanin []int32    // positions in nodes, sliced by pairNode.lo/hi
	index map[netlist.ID]int32
	roots []int32
	force []Vector
	vals  []Vector
	out   []Vector
	buf   []Vector
}

type pairNode struct {
	leaf   bool
	value  Vector // a leaf's value
	kind   netlist.Kind
	mask   uint64
	lo, hi int32
}

// CompilePairCone compiles the fan-in cone of roots. assign holds
// pair-encoded vectors, typically PairD() for the bits whose propagation is
// being checked.
func CompilePairCone(nl *netlist.Netlist, roots []netlist.ID, assign map[netlist.ID]Vector) *PairCone {
	c := &PairCone{index: make(map[netlist.ID]int32)}
	leaf := func(id netlist.ID) bool {
		_, ok := assign[id]
		return ok || nl.Kind(id).IsConeInput()
	}
	type frame struct {
		id   netlist.ID
		next int
	}
	var stack []frame
	for _, r := range roots {
		stack = append(stack[:0], frame{id: r})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if _, done := c.index[top.id]; done {
				stack = stack[:len(stack)-1]
				continue
			}
			if fanin := nl.Fanin(top.id); !leaf(top.id) && top.next < len(fanin) {
				f := fanin[top.next]
				top.next++
				if _, done := c.index[f]; !done {
					stack = append(stack, frame{id: f})
				}
				continue
			}
			id := top.id
			stack = stack[:len(stack)-1]
			var n pairNode
			if v, ok := assign[id]; ok {
				n = pairNode{leaf: true, value: v}
			} else if node := nl.Node(id); node.Kind.IsConeInput() {
				n = pairNode{leaf: true, value: Unknown()}
			} else {
				n = pairNode{kind: node.Kind, mask: node.Mask, lo: int32(len(c.fanin))}
				for _, f := range node.Fanin {
					c.fanin = append(c.fanin, c.index[f])
				}
				n.hi = int32(len(c.fanin))
			}
			c.index[id] = int32(len(c.nodes))
			c.nodes = append(c.nodes, n)
		}
	}
	for _, r := range roots {
		c.roots = append(c.roots, c.index[r])
	}
	c.force = make([]Vector, len(c.nodes))
	for i := range c.force {
		c.force[i] = Unknown()
	}
	c.vals = make([]Vector, len(c.nodes))
	c.out = make([]Vector, len(roots))
	return c
}

// Force overrides node id from the next Eval on: the known lanes of o
// replace the node's own value and its X lanes leave it alone, so Unknown()
// lifts the override. A node outside the cone cannot change any root, and
// forcing it does nothing.
func (c *PairCone) Force(id netlist.ID, o Vector) {
	if i, ok := c.index[id]; ok {
		c.force[i] = o
	}
}

// Eval evaluates the cone and returns the roots' vectors in the order
// CompilePairCone received them. The slice is reused by the next Eval.
func (c *PairCone) Eval() []Vector {
	for i := range c.nodes {
		n := &c.nodes[i]
		v := n.value
		if !n.leaf {
			c.buf = c.buf[:0]
			for _, f := range c.fanin[n.lo:n.hi] {
				c.buf = append(c.buf, c.vals[f])
			}
			if n.kind == netlist.Lut {
				v = EvalLut(n.mask, c.buf)
			} else {
				v = EvalGate(n.kind, c.buf)
			}
		}
		f := c.force[i]
		c.vals[i] = Vector{Val: v.Val&f.Unk | f.Val, Unk: v.Unk & f.Unk}.collapse()
	}
	for i, r := range c.roots {
		c.out[i] = c.vals[r]
	}
	return c.out
}

// TableOf computes the truth table of root as a function of the given
// leaves by a single bit-parallel run: leaf i carries the projection
// pattern of variable i, so all 2^len(leaves) input rows evaluate in one
// word pass. It returns ok=false when root's value depends on signals
// other than the leaves (some row stayed X). len(leaves) must be at most
// truth.MaxVars.
func TableOf(nl *netlist.Netlist, root netlist.ID, leaves []netlist.ID) (truth.Table, bool) {
	n := len(leaves)
	if n > truth.MaxVars {
		panic("bitsim: TableOf beyond truth.MaxVars")
	}
	assign := make(map[netlist.ID]Vector, n)
	for i, l := range leaves {
		assign[l] = Known(truth.Var(i, truth.MaxVars).Bits)
	}
	vals := RunCone(nl, []netlist.ID{root}, assign)
	v := vals[root]
	mask := truth.Mask(n)
	if v.Unk&mask != 0 {
		return truth.Table{}, false
	}
	return truth.Table{Bits: v.Val & mask, N: n}, true
}
