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
// QBF solver runs (internal/modmatch) and witnesses dead counter chains
// (internal/seq). Cone.EvalPairs runs the paper's five-valued
// {0, 1, D, D̄, X} symbolic simulation in the D-calculus pair encoding for
// word propagation (internal/words): each five-valued signal is a pair of
// lanes holding its D=0 and D=1 values, so one pass checks Pairs
// independent control assignments. The property
// tests in this package pin both modes to a scalar five-valued reference,
// node for node.
package bitsim

import (
	"math/bits"
	"slices"
	"sync"

	"netlistre/internal/netlist"
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
// repeated evaluation. The cone stops at the cone inputs and at the nodes
// the caller cuts loose from their own logic (which is how the paper's word
// propagation simulates the "local netlist" around a word, Section
// II-C.1). These leaves are X until forced. Between evaluations any node of
// the cone can be forced lane by lane, so a caller that re-runs one cone on
// fresh patterns compiles it once and forces the leaves' values before each
// evaluation. A caller that simulates many cones one after another keeps
// one Cone and recompiles it in place, reusing its memory.
//
// Eval treats the 64 lanes as independent three-valued runs; EvalPairs
// reads them as Pairs five-valued signals in the pair encoding.
type Cone struct {
	nodes []coneNode   // topological order
	ids   []netlist.ID // ids[i] is the netlist node of nodes[i]
	fanin []int32      // positions in nodes, sliced by coneNode.lo/hi
	index []uint64     // Force's lookup table, see position; empty until built
	shift int          // index has 2^(64-shift) slots
	roots []int32
	force []Vector
	vals  []Vector
	out   []Vector
	buf   []Vector
}

type coneNode struct {
	leaf   bool
	kind   netlist.Kind
	mask   uint64
	lo, hi int32
}

// CompileCone compiles the fan-in cone of roots into a new Cone; see
// Compile.
func CompileCone(nl *netlist.Netlist, roots, cut []netlist.ID) *Cone {
	return new(Cone).Compile(nl, roots, cut)
}

// Compile compiles the fan-in cone of roots into c, replacing whatever c
// held before, and returns c. The nodes in cut become leaves, cut loose
// from their own logic, like the cone inputs. cut may be nil. Every node
// starts unforced, and c's slices and Force's lookup table keep their
// memory, so recompiling one Cone allocates only when a cone outgrows
// every earlier one. The vectors an earlier Eval returned are reused.
func (c *Cone) Compile(nl *netlist.Netlist, roots, cut []netlist.ID) *Cone {
	sc := compileScratches.Get().(*compileScratch)
	if len(sc.pos) < nl.Len() {
		sc.pos = make([]int32, nl.Len())
	}
	// pos holds 1 + a node's place in order, 0 for a node not placed, and
	// -1 for a cut node not placed yet: the leaf test is one table read.
	pos := sc.pos
	for _, id := range cut {
		pos[id] = -1
	}
	order, isLeaf, stack := c.ids[:0], sc.leaf[:0], sc.stack[:0]
	edges := 0
	place := func(id netlist.ID, leaf bool) {
		order = append(order, id)
		isLeaf = append(isLeaf, leaf)
		pos[id] = int32(len(order))
		if !leaf {
			edges += len(nl.Fanin(id))
		}
	}
	leaf := func(id netlist.ID) bool { return pos[id] < 0 || nl.Kind(id).IsConeInput() }
	// Place the cone's nodes in topological order by an iterative DFS that
	// stops at leaves.
	for _, r := range roots {
		if pos[r] > 0 {
			continue
		}
		if leaf(r) {
			place(r, true)
			continue
		}
		stack = append(stack[:0], frame{id: r})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if fanin := nl.Fanin(top.id); top.next < len(fanin) {
				f := fanin[top.next]
				top.next++
				if pos[f] <= 0 {
					if leaf(f) {
						place(f, true)
					} else {
						stack = append(stack, frame{id: f})
					}
				}
				continue
			}
			place(top.id, false)
			stack = stack[:len(stack)-1]
		}
	}

	n := len(order)
	c.ids = order
	c.nodes = resize(c.nodes, n)
	c.fanin = resize(c.fanin, edges)[:0]
	c.index = c.index[:0]
	c.roots = resize(c.roots, len(roots))
	c.force = resize(c.force, n)
	c.vals = resize(c.vals, n)
	c.out = resize(c.out, len(roots))
	for i, id := range order {
		c.force[i] = Unknown()
		if isLeaf[i] {
			c.nodes[i] = coneNode{leaf: true}
			continue
		}
		node := nl.Node(id)
		cn := coneNode{kind: node.Kind, mask: node.Mask, lo: int32(len(c.fanin))}
		for _, f := range node.Fanin {
			c.fanin = append(c.fanin, pos[f]-1)
		}
		cn.hi = int32(len(c.fanin))
		c.nodes[i] = cn
	}
	for i, r := range roots {
		c.roots[i] = pos[r] - 1
	}
	for _, id := range order {
		pos[id] = 0
	}
	for _, id := range cut {
		pos[id] = 0
	}
	sc.leaf, sc.stack = isLeaf, stack
	compileScratches.Put(sc)
	return c
}

// resize returns s with length n, reallocated only when its capacity is
// short. The elements are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// compileScratch is Compile's pooled working memory: the dense node-ID
// position table, each placed node's leaf flag, and the DFS stack. Compile
// clears the table entries it set before handing it back, so compiling a
// small cone of a large netlist costs time in the cone's size, not the
// netlist's.
type compileScratch struct {
	pos   []int32
	leaf  []bool
	stack []frame
}

// frame is one node on Compile's DFS stack, with the next fanin to visit.
type frame struct {
	id   netlist.ID
	next int
}

var compileScratches = sync.Pool{New: func() any { return new(compileScratch) }}

// Force overrides node id from the next evaluation on: the known lanes of
// o replace the node's own value (X for a leaf) and its X lanes leave it
// alone, so Unknown() lifts the override. A node outside the cone cannot
// change any root, and forcing it does nothing.
func (c *Cone) Force(id netlist.ID, o Vector) {
	if i, ok := c.position(id); ok {
		c.force[i] = o
	}
}

// position finds id's place in the cone. The first call after a compile
// builds index, an open-addressing table of the cone's nodes: each entry is
// (ID+1)<<32 | position, so no entry is 0, the empty slot; the table has a
// power-of-two size, is at most two thirds full, and probes linearly from a
// multiplicative hash.
func (c *Cone) position(id netlist.ID) (int32, bool) {
	if len(c.index) == 0 {
		shift := 64 - bits.Len(uint(len(c.ids)+len(c.ids)/2)|1)
		c.index = resize(c.index, 1<<(64-shift))
		clear(c.index)
		for i, x := range c.ids {
			h := slotOf(x, shift)
			for c.index[h] != 0 {
				h = (h + 1) & (len(c.index) - 1)
			}
			c.index[h] = uint64(x+1)<<32 | uint64(i)
		}
		c.shift = shift
	}
	key := uint64(id+1) << 32
	for h := slotOf(id, c.shift); ; h = (h + 1) & (len(c.index) - 1) {
		e := c.index[h]
		if e == 0 {
			return 0, false
		}
		if e&^(1<<32-1) == key {
			return int32(uint32(e)), true
		}
	}
}

// slotOf is the home slot of id in a table of 2^(64-shift) slots.
func slotOf(id netlist.ID, shift int) int {
	return int(uint64(id) * 0x9e3779b97f4a7c15 >> uint(shift))
}

// Leaves returns the cone's leaves, its cone inputs and the cut nodes it
// reached, ascending by ID.
func (c *Cone) Leaves() []netlist.ID {
	var out []netlist.ID
	for i, n := range c.nodes {
		if n.leaf {
			out = append(out, c.ids[i])
		}
	}
	slices.Sort(out)
	return out
}

// Eval evaluates the cone with independent lanes and returns the roots'
// vectors in the order Compile received them. The slice is reused by the
// next evaluation and the next compile.
func (c *Cone) Eval() []Vector { return c.eval(false) }

// EvalPairs evaluates the cone in the pair encoding, collapsing every node's
// pairs after its forces apply, and returns the roots' vectors like Eval.
func (c *Cone) EvalPairs() []Vector { return c.eval(true) }

func (c *Cone) eval(pairs bool) []Vector {
	for i := range c.nodes {
		n := &c.nodes[i]
		v := Unknown()
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
