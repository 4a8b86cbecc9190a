// Package graph implements the latch connection graph (LCG) and its
// single-path variant (SPLCG) from Sections III-A.1 and III-B.1 of the
// paper, together with the chain-topology searches used to generate counter
// and shift-register candidates.
package graph

import (
	"slices"
	"sort"

	"netlistre/internal/netlist"
)

// LCG is the latch connection graph: vertices are latches, and a directed
// edge (u, v) exists iff a combinational path runs from the output of u to
// the D input of v. Edge multiplicity distinguishes the LCG (any path) from
// the SPLCG (exactly one path).
//
// Edges are stored as compressed latch-indexed rows sorted by target, so
// the graph takes memory linear in its edges and a lookup is a binary
// search.
type LCG struct {
	// Latches lists the vertices in netlist order; a latch's position here
	// is its row index and the target index of its incoming edges.
	Latches []netlist.ID
	index   []int32 // node ID -> latch index + 1, 0 for every other node
	// Row u's edges are edges[off[u]:off[u+1]].
	off   []int
	edges []edge
}

// edge is one LCG edge out of a latch: the target's latch index and the
// saturated path count, 1 or 2 ("more than one").
type edge struct {
	to    int32
	paths uint8
}

// BuildLCG constructs the latch connection graph of nl. Path counts
// saturate at 2: the analyses only need to distinguish "no path", "exactly
// one path" and "multiple paths".
//
// For each latch v, one post-order DFS collects the combinational fan-in
// cone of v's D input, so reversing it orders every node before its fanins.
// A backward DP over that order then counts paths(x), the number of paths
// from node x to the D input (saturated at 2), and a boundary latch u gets
// the sum of paths over its fanout occurrences inside the cone.
func BuildLCG(nl *netlist.Netlist) *LCG {
	g := &LCG{Latches: nl.Latches(), index: make([]int32, nl.Len())}
	n := len(g.Latches)
	for i, l := range g.Latches {
		g.index[l] = int32(i) + 1
	}

	// stamp marks the nodes seen for the current latch (epoch vi+1); paths
	// holds their saturated path counts and is valid only where stamped.
	stamp := make([]uint32, nl.Len())
	paths := make([]uint8, nl.Len())
	type frame struct {
		id  netlist.ID
		idx int
	}
	var stack []frame
	var order, boundary []netlist.ID
	// The edges arrive grouped by target; from[i] is the source of in[i].
	var from []int32
	var in []edge
	for vi, v := range g.Latches {
		epoch := uint32(vi) + 1
		d := nl.Fanin(v)[0]
		boundary = boundary[:0]
		if nl.Kind(d).IsConeInput() {
			if nl.Kind(d) == netlist.Latch {
				stamp[d], paths[d] = epoch, 1
				boundary = append(boundary, d)
			}
		} else {
			order = order[:0]
			stamp[d], paths[d] = epoch, 1
			stack = append(stack[:0], frame{d, 0})
			for len(stack) > 0 {
				f := &stack[len(stack)-1]
				fanin := nl.Fanin(f.id)
				if f.idx == len(fanin) {
					order = append(order, f.id)
					stack = stack[:len(stack)-1]
					continue
				}
				c := fanin[f.idx]
				f.idx++
				if stamp[c] == epoch || nl.Kind(c).IsConeInput() {
					continue
				}
				stamp[c], paths[c] = epoch, 0
				stack = append(stack, frame{c, 0})
			}
			for i := len(order) - 1; i >= 0; i-- {
				x := order[i]
				px := paths[x]
				for _, f := range nl.Fanin(x) {
					if stamp[f] != epoch {
						// A cone input seen for the first time; gates were
						// all stamped by the DFS.
						stamp[f], paths[f] = epoch, 0
						if nl.Kind(f) == netlist.Latch {
							boundary = append(boundary, f)
						}
					}
					paths[f] = min(paths[f]+px, 2)
				}
			}
		}
		for _, u := range boundary {
			from = append(from, int32(g.latchIndex(u)))
			in = append(in, edge{int32(vi), paths[u]})
		}
	}
	// Counting sort by source. Targets arrive in increasing order, so each
	// row comes out sorted by target.
	g.off = make([]int, n+1)
	for _, u := range from {
		g.off[u+1]++
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	g.edges = make([]edge, len(in))
	next := append([]int(nil), g.off[:n]...)
	for i, e := range in {
		u := from[i]
		g.edges[next[u]] = e
		next[u]++
	}
	return g
}

// row returns latch u's outgoing edges, sorted by target.
func (g *LCG) row(u int) []edge { return g.edges[g.off[u]:g.off[u+1]] }

// paths returns the saturated path count of the edge between latch
// indices u and v, 0 when there is none.
func (g *LCG) paths(u, v int) uint8 {
	row := g.row(u)
	i := sort.Search(len(row), func(i int) bool { return int(row[i].to) >= v })
	if i < len(row) && int(row[i].to) == v {
		return row[i].paths
	}
	return 0
}

// latchIndex returns id's row index, or -1 when id is not a latch.
func (g *LCG) latchIndex(id netlist.ID) int {
	if int(id) < 0 || int(id) >= len(g.index) {
		return -1
	}
	return int(g.index[id]) - 1
}

// pathsBetween returns the saturated path count u -> v, 0 when u or v is
// not a latch.
func (g *LCG) pathsBetween(u, v netlist.ID) uint8 {
	ui, vi := g.latchIndex(u), g.latchIndex(v)
	if ui < 0 || vi < 0 {
		return 0
	}
	return g.paths(ui, vi)
}

// HasEdge reports whether the LCG has an edge u -> v (any multiplicity).
func (g *LCG) HasEdge(u, v netlist.ID) bool { return g.pathsBetween(u, v) > 0 }

// HasSingleEdge reports whether exactly one combinational path u -> v
// exists (the SPLCG edge relation).
func (g *LCG) HasSingleEdge(u, v netlist.ID) bool { return g.pathsBetween(u, v) == 1 }

// CounterChains finds ordered latch sets V = {v1..vk} with the counter
// topology of Figure 5: for all i, j: edge (vi, vj) exists iff i <= j.
// In particular every member has a self-loop, earlier members feed all
// later members, and no backward edges exist. Chains shorter than minLen
// are discarded; maximal chains are returned.
func (g *LCG) CounterChains(minLen int) [][]netlist.ID {
	if minLen < 2 {
		minLen = 2
	}
	// Candidates must have self-loops.
	selfLoop := make([]bool, len(g.Latches))
	for i := range selfLoop {
		selfLoop[i] = g.paths(i, i) > 0
	}
	// Greedy maximal-chain growth from each start, deduplicated by chain
	// signature. A latch v can follow chain c when every member of c has
	// an edge to v and v has no edge back to any member. The eligible set
	// only shrinks as the chain grows: a new member keeps the candidates
	// it feeds that do not feed it, and drops itself by its own self-loop.
	// It stays sorted by latch index, the order of a row.
	seen := make(map[string]bool)
	var chains [][]netlist.ID
	var elig []int32
	for start := range g.Latches {
		if !selfLoop[start] {
			continue
		}
		chain := []netlist.ID{g.Latches[start]}
		elig = elig[:0]
		for _, e := range g.row(start) {
			if selfLoop[e.to] && g.paths(int(e.to), start) == 0 {
				elig = append(elig, e.to)
			}
		}
		for len(elig) > 0 {
			// In a counter, the true next bit dominates: it feeds every
			// other eligible (higher) bit. Picking a non-dominating
			// candidate would skip a bit and break the chain.
			next := elig[0]
			for _, cand := range elig {
				if g.feedsAll(int(cand), elig) {
					next = cand
					break
				}
			}
			chain = append(chain, g.Latches[next])
			k := 0
			for _, c := range elig {
				if g.paths(int(next), int(c)) > 0 && g.paths(int(c), int(next)) == 0 {
					elig[k] = c
					k++
				}
			}
			elig = elig[:k]
		}
		if len(chain) < minLen {
			continue
		}
		key := netlist.Key(netlist.SortedIDs(chain))
		if !seen[key] {
			seen[key] = true
			chains = append(chains, chain)
		}
	}
	// Drop chains that are strict prefixes/subsets of others.
	return dropSubChains(chains)
}

// feedsAll reports whether latch u has an edge to every latch in the
// sorted set vs.
func (g *LCG) feedsAll(u int, vs []int32) bool {
	row := g.row(u)
	j := 0
	for _, v := range vs {
		for j < len(row) && row[j].to < v {
			j++
		}
		if j == len(row) || row[j].to != v {
			return false
		}
	}
	return true
}

// ShiftChains finds maximal latch chains v1 -> v2 -> ... -> vk in the
// SPLCG where consecutive latches are connected by exactly one
// combinational path and non-consecutive members are not connected at all
// (Section III-B.1). Chains shorter than minLen are discarded.
func (g *LCG) ShiftChains(minLen int) [][]netlist.ID {
	if minLen < 2 {
		minLen = 2
	}
	// next[u] = v when u has exactly one SPLCG successor v (self-loops from
	// hold/enable muxes are ignored: the paper's functional check, Eq. 3,
	// handles the hold term). Latches with several SPLCG successors are
	// branch points and terminate chains, since the chain relation requires
	// an edge iff j = i+1. Multi-bit shift registers shifting in tandem
	// appear as parallel chains and are aggregated afterwards.
	n := len(g.Latches)
	next := make([]int, n)
	indeg := make([]int, n)
	for u := range next {
		next[u] = -1
		v, succ := -1, 0
		for _, e := range g.row(u) {
			if int(e.to) != u && e.paths == 1 {
				v, succ = int(e.to), succ+1
			}
		}
		if succ == 1 {
			next[u] = v
			indeg[v]++
		}
	}
	var chains [][]netlist.ID
	for u := range next {
		if indeg[u] != 0 {
			continue // not a chain head
		}
		chain := []netlist.ID{g.Latches[u]}
		for cur := u; ; {
			// v must have exactly one usable predecessor (cur) to extend a
			// clean chain; indeg counts that. It also ends a cycle: a member
			// reached again has a second predecessor.
			v := next[cur]
			if v < 0 || indeg[v] != 1 {
				break
			}
			chain = append(chain, g.Latches[v])
			cur = v
		}
		if len(chain) >= minLen {
			chains = append(chains, chain)
		}
	}
	sort.Slice(chains, func(i, j int) bool { return chains[i][0] < chains[j][0] })
	return chains
}

func dropSubChains(chains [][]netlist.ID) [][]netlist.ID {
	var out [][]netlist.ID
	for i, c := range chains {
		sub := false
		for j, d := range chains {
			if i == j || len(d) < len(c) || (len(d) == len(c) && j < i) {
				continue
			}
			all := true
			for _, x := range c {
				if !slices.Contains(d, x) {
					all = false
					break
				}
			}
			if all && (len(d) > len(c) || j > i) {
				sub = true
				break
			}
		}
		if !sub {
			out = append(out, c)
		}
	}
	return out
}
