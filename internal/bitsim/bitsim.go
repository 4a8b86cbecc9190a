// Package bitsim implements 64-lane bit-parallel three-valued simulation:
// one machine word per signal simulates 64 independent input patterns at
// once. Signals are dual-rail encoded — a value word and an unknown mask —
// so the Kleene {0, 1, X} algebra costs a handful of word operations per
// gate regardless of how many patterns are in flight. It is the
// repository's one three-valued evaluator; two-valued simulation is
// netlist.EvalWord.
//
// Every simulation runs on a Cone: a fan-in cone compiled once, whose
// leaves the caller re-forces between evaluations. Cone.Eval keeps the
// lanes independent. That mode refutes candidate module matches before the
// QBF solver runs (internal/modmatch), refutes decoder/popcount candidates
// before BDDs are built (internal/support), checks decompiled RTL and its
// lowering proofs (internal/rtl), witnesses dead counter chains
// (internal/seq) and tabulates cut functions (TableOf). Cone.EvalPairs runs
// the paper's five-valued {0, 1, D, D̄, X} symbolic simulation in the
// D-calculus pair encoding for word propagation (internal/words): each
// five-valued signal is a pair of lanes holding its D=0 and D=1 values, so
// one pass checks Pairs independent control assignments. The property
// tests in this package pin both modes to a scalar five-valued reference,
// node for node.
package bitsim

import (
	"sync"

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

// Cone is the transitive fan-in cone of some roots, compiled once for
// repeated evaluation. The cone stops at assigned nodes, which hold their
// assigned vectors (cut loose from their own logic, which is how the
// paper's word propagation simulates the "local netlist" around a word,
// Section II-C.1), and at the other cone inputs, which are X. Between
// evaluations any node of the cone can be forced lane by lane, so a caller
// that re-runs one cone on fresh patterns compiles it once, with Unknown()
// assigned to each leaf that is not a cone input already, and forces the
// leaves' values before each evaluation.
//
// Eval treats the 64 lanes as independent three-valued runs; EvalPairs
// reads them as Pairs five-valued signals in the pair encoding.
type Cone struct {
	nodes []coneNode // topological order
	fanin []int32    // positions in nodes, sliced by coneNode.lo/hi
	index map[netlist.ID]int32
	roots []int32
	force []Vector
	vals  []Vector
	out   []Vector
	buf   []Vector
}

type coneNode struct {
	leaf   bool
	value  Vector // a leaf's value
	kind   netlist.Kind
	mask   uint64
	lo, hi int32
}

// CompileCone compiles the fan-in cone of roots with the nodes in assign
// cut loose and holding their assigned vectors. assign may be nil.
func CompileCone(nl *netlist.Netlist, roots []netlist.ID, assign map[netlist.ID]Vector) *Cone {
	table := positions.Get().(*[]int32)
	if len(*table) < nl.Len() {
		*table = make([]int32, nl.Len())
	}
	pos := *table // 1 + a node's position in the cone, 0 outside it
	// Place the cone's nodes in topological order by an iterative DFS that
	// stops at leaves.
	var ids []netlist.ID
	place := func(id netlist.ID) {
		ids = append(ids, id)
		pos[id] = int32(len(ids))
	}
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
		if pos[r] != 0 {
			continue
		}
		if leaf(r) {
			place(r)
			continue
		}
		stack = append(stack[:0], frame{id: r})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if fanin := nl.Fanin(top.id); top.next < len(fanin) {
				f := fanin[top.next]
				top.next++
				if pos[f] == 0 {
					if leaf(f) {
						place(f)
					} else {
						stack = append(stack, frame{id: f})
					}
				}
				continue
			}
			place(top.id)
			stack = stack[:len(stack)-1]
		}
	}

	c := &Cone{
		nodes: make([]coneNode, len(ids)),
		index: make(map[netlist.ID]int32, len(ids)),
		roots: make([]int32, len(roots)),
		force: make([]Vector, len(ids)),
		vals:  make([]Vector, len(ids)),
		out:   make([]Vector, len(roots)),
	}
	edges := 0
	for _, id := range ids {
		edges += len(nl.Fanin(id))
	}
	c.fanin = make([]int32, 0, edges)
	for i, id := range ids {
		c.index[id] = int32(i)
		c.force[i] = Unknown()
		if v, ok := assign[id]; ok {
			c.nodes[i] = coneNode{leaf: true, value: v}
		} else if node := nl.Node(id); node.Kind.IsConeInput() {
			c.nodes[i] = coneNode{leaf: true, value: Unknown()}
		} else {
			n := coneNode{kind: node.Kind, mask: node.Mask, lo: int32(len(c.fanin))}
			for _, f := range node.Fanin {
				c.fanin = append(c.fanin, pos[f]-1)
			}
			n.hi = int32(len(c.fanin))
			c.nodes[i] = n
		}
	}
	for i, r := range roots {
		c.roots[i] = pos[r] - 1
	}
	for _, id := range ids {
		pos[id] = 0
	}
	positions.Put(table)
	return c
}

// positions pools CompileCone's dense node-ID table. CompileCone clears the
// entries it set before handing the table back, so compiling a small cone
// of a large netlist costs time in the cone's size, not the netlist's.
var positions = sync.Pool{New: func() any { return new([]int32) }}

// Force overrides node id from the next evaluation on: the known lanes of
// o replace the node's own value and its X lanes leave it alone, so
// Unknown() lifts the override. A node outside the cone cannot change any
// root, and forcing it does nothing.
func (c *Cone) Force(id netlist.ID, o Vector) {
	if i, ok := c.index[id]; ok {
		c.force[i] = o
	}
}

// Eval evaluates the cone with independent lanes and returns the roots'
// vectors in the order CompileCone received them. The slice is reused by
// the next evaluation.
func (c *Cone) Eval() []Vector { return c.eval(false) }

// EvalPairs evaluates the cone in the pair encoding, collapsing every node's
// pairs after its forces apply, and returns the roots' vectors like Eval.
func (c *Cone) EvalPairs() []Vector { return c.eval(true) }

func (c *Cone) eval(pairs bool) []Vector {
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
		v = Vector{Val: v.Val&f.Unk | f.Val, Unk: v.Unk & f.Unk}
		if pairs {
			v = v.collapse()
		}
		c.vals[i] = v
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
	v := CompileCone(nl, []netlist.ID{root}, assign).Eval()[0]
	mask := truth.Mask(n)
	if v.Unk&mask != 0 {
		return truth.Table{}, false
	}
	return truth.Table{Bits: v.Val & mask, N: n}, true
}
