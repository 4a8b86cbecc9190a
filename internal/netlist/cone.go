package netlist

// This file implements combinational fan-in cone traversal and topological
// ordering. Cones are the basic unit of functional analysis: the "full
// combinational fan-in cone" of a node stops at primary inputs and latch
// outputs, so the cone computes a pure Boolean function of those boundary
// signals.

import (
	"slices"
	"sync"
)

// Cone describes the full combinational fan-in cone of one or more roots.
type Cone struct {
	// Roots are the nodes whose cone was traversed.
	Roots []ID
	// Inputs are the boundary signals (primary inputs and latch outputs)
	// the cone depends on, sorted ascending.
	Inputs []ID
	// Nodes are the combinational nodes inside the cone (including the
	// roots when they are combinational), sorted ascending.
	Nodes []ID
}

// ConeOf computes the full combinational fan-in cone of root.
func (n *Netlist) ConeOf(root ID) Cone { return n.ConeOfAll([]ID{root}) }

// ConeOfAll computes the merged full combinational fan-in cone of several
// roots.
func (n *Netlist) ConeOfAll(roots []ID) Cone {
	c := Cone{Roots: append([]ID(nil), roots...)}
	seen := n.Visits()
	stack := seen.stack[:0]
	for _, r := range roots {
		if !seen.Visit(r) {
			continue
		}
		if n.nodes[r].Kind.IsConeInput() {
			// A root that is itself an input/latch contributes itself as a
			// boundary signal but no interior nodes.
			c.Inputs = append(c.Inputs, r)
			continue
		}
		stack = append(stack, r)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c.Nodes = append(c.Nodes, id)
		for _, f := range n.nodes[id].Fanin {
			if !seen.Visit(f) {
				continue
			}
			if n.nodes[f].Kind.IsConeInput() {
				c.Inputs = append(c.Inputs, f)
				continue
			}
			stack = append(stack, f)
		}
	}
	seen.stack = stack
	seen.Release()
	slices.Sort(c.Inputs)
	slices.Sort(c.Nodes)
	return c
}

// VisitSet is a visited set over the node IDs of one netlist: node i is
// visited iff stamp[i] equals the current epoch, so Reset costs one
// increment, not a clear, and a walk over a small cone of a large netlist
// costs time in the cone's size. Visits draws sets from a pool shared by
// every walker (ConeOfAll among them); Release hands one back. A VisitSet
// belongs to one goroutine between Visits and Release.
type VisitSet struct {
	stamp []uint32
	epoch uint32
	stack []ID // ConeOfAll's DFS stack, pooled with the table
}

// visitSets pools visited sets across walks and goroutines.
var visitSets = sync.Pool{New: func() any { return new(VisitSet) }}

// Visits returns an empty visited set sized for n.
func (n *Netlist) Visits() *VisitSet {
	s := visitSets.Get().(*VisitSet)
	if len(s.stamp) < len(n.nodes) {
		s.stamp = make([]uint32, len(n.nodes))
		s.epoch = 0
	}
	s.Reset()
	return s
}

// Reset empties the set.
func (s *VisitSet) Reset() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
}

// Visit marks id visited and reports whether it was unvisited before.
func (s *VisitSet) Visit(id ID) bool {
	if s.stamp[id] == s.epoch {
		return false
	}
	s.stamp[id] = s.epoch
	return true
}

// Seen reports whether id is visited.
func (s *VisitSet) Seen(id ID) bool { return s.stamp[id] == s.epoch }

// Release returns the set to the pool; s must not be used afterwards.
func (s *VisitSet) Release() { visitSets.Put(s) }

// TopoOrder returns all nodes in a topological order where every
// combinational node appears after its fanins. Inputs, constants and latches
// (whose outputs are state, not combinational functions) come first.
func (n *Netlist) TopoOrder() []ID {
	order := make([]ID, 0, len(n.nodes))
	state := make([]byte, len(n.nodes)) // 0 unvisited, 1 on stack, 2 done
	type frame struct {
		id  ID
		idx int
	}
	var stack []frame
	for i := range n.nodes {
		if state[i] != 0 {
			continue
		}
		if !n.nodes[i].Kind.IsGate() {
			// Boundary node: emit immediately.
			state[i] = 2
			order = append(order, ID(i))
			continue
		}
		stack = append(stack[:0], frame{ID(i), 0})
		state[i] = 1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			node := &n.nodes[f.id]
			if f.idx >= len(node.Fanin) {
				state[f.id] = 2
				order = append(order, f.id)
				stack = stack[:len(stack)-1]
				continue
			}
			child := node.Fanin[f.idx]
			f.idx++
			if state[child] != 0 {
				continue
			}
			if !n.nodes[child].Kind.IsGate() {
				state[child] = 2
				order = append(order, child)
				continue
			}
			state[child] = 1
			stack = append(stack, frame{child, 0})
		}
	}
	return order
}

// ConeDirection selects which way BoundedCone walks the netlist graph.
type ConeDirection int

const (
	// Fanin walks against signal flow: the nodes whose values the root
	// depends on.
	Fanin ConeDirection = iota
	// Fanout walks with signal flow: the nodes whose values depend on the
	// root.
	Fanout
)

func (d ConeDirection) String() string {
	if d == Fanout {
		return "fanout"
	}
	return "fanin"
}

// ConeNode is one visited node of a BoundedCone traversal.
type ConeNode struct {
	ID    ID
	Depth int
}

// BoundedConeResult is the outcome of a depth- and size-capped cone query.
type BoundedConeResult struct {
	Root ID
	Dir  ConeDirection
	// Nodes lists the visited nodes in BFS order, the root first at depth
	// 0. Within one depth level nodes are ordered ascending by ID, so the
	// result is deterministic.
	Nodes []ConeNode
	// TruncatedDepth is set when the frontier still had unvisited
	// neighbors past MaxDepth; TruncatedSize when MaxNodes cut the
	// traversal short.
	TruncatedDepth bool
	TruncatedSize  bool
}

// BoundedCone runs a breadth-first cone traversal from root, through
// latches (the sequential cone, not just the combinational one ConeOf
// computes), bounded by maxDepth levels beyond the root and maxNodes
// visited nodes. A bound <= 0 means unbounded for that axis. Interactive
// exploration is the intended caller: the caps make a query over a
// high-fanout net (a clock enable, a reset tree) return a bounded answer
// with explicit truncation flags instead of the whole design.
func (n *Netlist) BoundedCone(root ID, dir ConeDirection, maxDepth, maxNodes int) BoundedConeResult {
	res := BoundedConeResult{Root: root, Dir: dir}
	if int(root) < 0 || int(root) >= len(n.nodes) {
		return res
	}
	seen := map[ID]bool{root: true}
	res.Nodes = append(res.Nodes, ConeNode{ID: root, Depth: 0})
	frontier := []ID{root}
	neighbors := func(id ID) []ID {
		if dir == Fanout {
			return n.fanout[id]
		}
		return n.nodes[id].Fanin
	}
	for depth := 1; len(frontier) > 0; depth++ {
		if maxDepth > 0 && depth > maxDepth {
			// Anything still reachable from the frontier is cut off.
			for _, id := range frontier {
				for _, nb := range neighbors(id) {
					if !seen[nb] {
						res.TruncatedDepth = true
					}
				}
			}
			break
		}
		var next []ID
		for _, id := range frontier {
			for _, nb := range neighbors(id) {
				if seen[nb] {
					continue
				}
				seen[nb] = true
				next = append(next, nb)
			}
		}
		next = SortedIDs(next)
		for _, nb := range next {
			if maxNodes > 0 && len(res.Nodes) >= maxNodes {
				res.TruncatedSize = true
				return res
			}
			res.Nodes = append(res.Nodes, ConeNode{ID: nb, Depth: depth})
		}
		frontier = next
	}
	return res
}

// CountCombPaths counts the number of distinct combinational paths from the
// output of from to node to, saturating at limit (counting all paths can be
// exponential; callers only ever need "zero, one, or more").
func (n *Netlist) CountCombPaths(from, to ID, limit int) int {
	// memo[g] = number of paths from the output of g to node `to`,
	// saturated at limit.
	memo := make(map[ID]int)
	var paths func(g ID) int
	paths = func(g ID) int {
		if v, ok := memo[g]; ok {
			return v
		}
		memo[g] = 0 // cycle guard; combinational logic is acyclic anyway
		total := 0
		for _, fo := range n.fanout[g] {
			if fo == to {
				total++
			} else if n.nodes[fo].Kind.IsGate() {
				total += paths(fo)
			}
			if total >= limit {
				total = limit
				break
			}
		}
		memo[g] = total
		return total
	}
	return paths(from)
}
