// Package cuts implements k-feasible cut enumeration with attached cut
// functions (Section II-A of the paper). A feasible cut of a node G is a set
// of nodes in G's transitive fan-in whose values determine G; a cut is
// k-feasible when it has at most k leaves. Cut enumeration was introduced
// for technology mapping and is reused here to generate candidate bitslice
// boundaries for Boolean matching.
package cuts

import (
	"math/bits"
	"slices"

	"netlistre/internal/netlist"
	"netlistre/internal/par"
	"netlistre/internal/truth"
)

// Cut is a k-feasible cut of some root node, together with the Boolean
// function of the root in terms of the cut leaves (leaf j is variable j of
// the table).
type Cut struct {
	Leaves []netlist.ID // sorted ascending
	Table  truth.Table
}

// Options configures enumeration.
type Options struct {
	// K is the maximum number of cut leaves. The paper fixes K=6; values
	// above truth.MaxVars are rejected.
	K int
	// MaxCuts bounds the number of cuts kept per node (0 means the
	// default). Smaller cuts are preferred when truncating.
	MaxCuts int
	// Workers caps the goroutines that enumerate combinational components
	// at once, with par.Do's meaning: 0 uses GOMAXPROCS and 1 runs
	// serially. Every cut set is the same at any worker count.
	Workers int
	// Interrupt, when non-nil, is polled every few nodes during
	// enumeration, by every worker; when it returns true, Enumerate stops
	// and returns the cut sets computed so far (downstream matching simply
	// sees fewer candidates). It must be safe to call concurrently.
	Interrupt func() bool
}

// DefaultMaxCuts bounds per-node cut sets; the paper reports an average of
// 15-35 6-feasible cuts per gate, so 48 loses almost nothing.
const DefaultMaxCuts = 48

// Enumerate computes the k-feasible cuts of every node in n, keyed by node
// ID: a view of EnumerateByID's sets.
func Enumerate(n *netlist.Netlist, opt Options) map[netlist.ID][]Cut {
	sets := EnumerateByID(n, opt)
	res := make(map[netlist.ID][]Cut, len(sets))
	for id, cs := range sets {
		if cs != nil {
			res[netlist.ID(id)] = cs
		}
	}
	return res
}

// EnumerateByID computes the k-feasible cuts of every node in n; element
// id is node id's cut set. Boundary nodes (inputs, latches) get only their
// trivial cut; constants get a single empty-leaf constant cut. An
// interrupted enumeration leaves the sets of the nodes it did not reach
// nil.
//
// The boundary sets come first. The gates and LUTs then split into the
// connected components of the gate-to-gate fanin graph, which par.Do hands
// out largest first; a worker walks each component it claims in
// topological order with its own scratch. A node's cut set depends only on
// its fanins' sets, which are boundary sets or earlier nodes of its own
// component, so the sets do not depend on the worker count.
func EnumerateByID(n *netlist.Netlist, opt Options) [][]Cut {
	opt.defaults()
	s := newSets(n)
	gates, start := components(n)
	par.Do(len(start)-1, opt.Workers, opt.Interrupt, func(claim func() (int, bool)) {
		var sc scratch
		walked := 0
		for c, ok := claim(); ok; c, ok = claim() {
			for _, id := range gates[start[c]:start[c+1]] {
				if walked&63 == 0 && opt.Interrupt != nil && opt.Interrupt() {
					return
				}
				walked++
				if n.Kind(id) == netlist.Lut {
					s.cuts[id], s.sigs[id] = enumerateLut(n, id, s, opt, &sc)
				} else {
					s.cuts[id], s.sigs[id] = enumerateGate(n, id, s, opt, &sc)
				}
			}
		}
	})
	return s.cuts
}

// sets is an enumeration in progress: each node's cut set, and the leaf
// signatures of its cuts (sigs[id][i] is leafSig(cuts[id][i].Leaves)). A
// signature is computed once, when its node's set is made, and read by
// every fold of the node's fanouts; the signatures are dropped when the
// enumeration returns.
type sets struct {
	cuts [][]Cut
	sigs [][]uint64
}

// newSets returns the sets of n with every boundary set filled in: the
// trivial cut of an input or latch, or a constant's one empty-leaf cut.
func newSets(n *netlist.Netlist) *sets {
	s := &sets{cuts: make([][]Cut, n.Len()), sigs: make([][]uint64, n.Len())}
	var sc scratch // carves the boundary signatures
	for id := netlist.ID(0); int(id) < n.Len(); id++ {
		switch n.Kind(id) {
		case netlist.Const0:
			s.cuts[id] = []Cut{{Table: truth.Const(false, 0)}}
		case netlist.Const1:
			s.cuts[id] = []Cut{{Table: truth.Const(true, 0)}}
		case netlist.Input, netlist.Latch:
			s.cuts[id] = []Cut{trivialCut(id, nil)}
		default:
			continue
		}
		s.sigs[id] = sc.sigBuf(1)
		s.sigs[id][0] = leafSig(s.cuts[id][0].Leaves)
	}
	return s
}

func (o *Options) defaults() {
	if o.K <= 0 || o.K > truth.MaxVars {
		o.K = truth.MaxVars
	}
	if o.MaxCuts <= 0 {
		o.MaxCuts = DefaultMaxCuts
	}
}

// components splits the gates and LUTs of n into the connected components
// of the undirected gate-to-gate fanin graph. Component c is
// gates[start[c]:start[c+1]], in netlist.TopoOrder's order; components come
// largest first, ties in the order of their first gate.
func components(n *netlist.Netlist) (gates []netlist.ID, start []int) {
	// Union-find over node IDs; a set's root is its least ID.
	root := make([]netlist.ID, n.Len())
	for id := range root {
		root[id] = netlist.ID(id)
	}
	find := func(x netlist.ID) netlist.ID {
		for root[x] != x {
			root[x] = root[root[x]]
			x = root[x]
		}
		return x
	}
	for id := netlist.ID(0); int(id) < n.Len(); id++ {
		if !n.Kind(id).IsGate() {
			continue
		}
		for _, f := range n.Fanin(id) {
			if !n.Kind(f).IsGate() {
				continue
			}
			if a, b := find(id), find(f); a != b {
				root[max(a, b)] = min(a, b)
			}
		}
	}
	// Number the components by their first gate in topological order.
	order := n.TopoOrder()
	label := make([]int32, n.Len()) // 1 + the component rooted here
	var size []int
	for _, id := range order {
		if !n.Kind(id).IsGate() {
			continue
		}
		r := find(id)
		if label[r] == 0 {
			size = append(size, 0)
			label[r] = int32(len(size))
		}
		size[label[r]-1]++
	}
	byLen := make([]int, len(size))
	for c := range byLen {
		byLen[c] = c
	}
	slices.SortStableFunc(byLen, func(a, b int) int { return size[b] - size[a] })
	start = make([]int, len(size)+1)
	fill := make([]int, len(size)) // the next slot of each component
	for i, c := range byLen {
		fill[c] = start[i]
		start[i+1] = start[i] + size[c]
	}
	gates = make([]netlist.ID, start[len(size)])
	for _, id := range order {
		if n.Kind(id).IsGate() {
			c := label[find(id)] - 1
			gates[fill[c]] = id
			fill[c]++
		}
	}
	return gates, start
}

// scratch holds the buffers one enumeration worker reuses from fold to
// fold and node to node: the two sides of a fold (leaf sets la, lb and
// signature words sa, sb), the leaf slab the merged leaf sets are written
// into, the pending cuts that point into it, prune's buckets and survivors
// (byLen, kept), the signatures of a gate's partial fold (psig), and
// enumerateLut's intermediate selections (sel, selNext) with their leaves
// (held). No returned Cut references scratch memory: the last fold of a
// node copies its kept leaf sets into a fresh allocation (leafBuf). The
// nodes' signature sets are carved from the chunk left in sigFree.
type scratch struct {
	la, lb       [][]netlist.ID
	sa, sb, psig []uint64
	slab         []netlist.ID
	pending      []pendingCut
	byLen, kept  []pendingCut
	sel, selNext []selCut
	held         []netlist.ID
	sigFree      []uint64
}

// sigChunk is the number of signatures a worker allocates at a time.
const sigChunk = 4096

// sigBuf returns room for k signatures, carved from the worker's current
// chunk, so that node sets do not allocate their signatures one by one.
func (sc *scratch) sigBuf(k int) []uint64 {
	if len(sc.sigFree) < k {
		sc.sigFree = make([]uint64, max(k, sigChunk))
	}
	b := sc.sigFree[:k:k]
	sc.sigFree = sc.sigFree[k:]
	return b
}

// finish appends id's trivial cut to cs, writing its leaf into spare when
// there is one, and returns the set with its signatures: sigs, which are
// those of cs, then the trivial cut's.
func (sc *scratch) finish(id netlist.ID, cs []Cut, sigs []uint64, spare []netlist.ID) ([]Cut, []uint64) {
	ss := sc.sigBuf(len(cs) + 1)
	copy(ss, sigs)
	cs = append(cs, trivialCut(id, spare))
	ss[len(sigs)] = leafSig(cs[len(sigs)].Leaves)
	return cs, ss
}

// selCut is a merged LUT leaf set with the cut chosen at each fanin so far:
// choice[j] indexes the cut set of fanin j.
type selCut struct {
	leaves []netlist.ID
	choice [netlist.MaxLutInputs]int
}

// leafBuf returns room for the leaf sets of kept. For a node's last fold
// it is a fresh allocation with one extra slot for the trivial cut's leaf;
// for an intermediate fold it is the reused held buffer.
func (sc *scratch) leafBuf(kept []pendingCut, last bool) []netlist.ID {
	total := 0
	for _, p := range kept {
		total += len(p.leaves)
	}
	if last {
		return make([]netlist.ID, total+1)
	}
	if cap(sc.held) < total {
		sc.held = make([]netlist.ID, total)
	}
	return sc.held[:total]
}

// takeLeaves copies leaves to the front of *buf, advances *buf past the
// copy, and returns the copy.
func takeLeaves(buf *[]netlist.ID, leaves []netlist.ID) []netlist.ID {
	n := copy(*buf, leaves)
	l := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return l
}

// appendSide appends the leaf sets of cs and their signatures sigs to one
// fold side.
func appendSide(ls [][]netlist.ID, ss []uint64, cs []Cut, sigs []uint64) ([][]netlist.ID, []uint64) {
	for i := range cs {
		ls = append(ls, cs[i].Leaves)
	}
	return ls, append(ss, sigs...)
}

// mergeFold collects the feasible merged leaf sets of every (a, b) pair of
// the fold sides la×lb and returns the pruned and truncated survivors.
// Their leaves point into the slab and stay valid until the next call.
func (sc *scratch) mergeFold(opt Options) []pendingCut {
	need := len(sc.la) * len(sc.lb) * (opt.K + 1)
	if cap(sc.slab) < need {
		sc.slab = make([]netlist.ID, 0, need)
	}
	slab, pending := sc.slab[:0], sc.pending[:0]
	for ai, a := range sc.la {
		for bi, b := range sc.lb {
			sig := sc.sa[ai] | sc.sb[bi]
			if bits.OnesCount64(sig) > opt.K {
				continue // provably more than K distinct leaves
			}
			start := len(slab)
			after, ok := netlist.MergeIDs(slab, a, b, opt.K)
			if !ok {
				continue
			}
			slab = after
			pending = append(pending, pendingCut{
				leaves: slab[start:len(slab):len(slab)],
				sig:    sig,
				a:      ai, b: bi,
			})
		}
	}
	sc.slab, sc.pending = slab, pending
	return sc.prune(pending, opt.MaxCuts)
}

// trivialCut returns the cut {id}, writing its leaf into slot (the spare
// slot of a last-fold leafBuf) when there is one.
func trivialCut(id netlist.ID, slot []netlist.ID) Cut {
	if slot == nil {
		slot = make([]netlist.ID, 1)
	}
	slot[0] = id
	return Cut{Leaves: slot, Table: truth.Var(0, 1)}
}

// enumerateGate returns the cut set of gate id and its signatures.
func enumerateGate(n *netlist.Netlist, id netlist.ID, s *sets, opt Options, sc *scratch) ([]Cut, []uint64) {
	fanin := n.Fanin(id)
	kind := n.Kind(id)

	// Fold the fanin cut sets pairwise under the gate's associative
	// operation (And for And/Nand, Or for Or/Nor, Xor for Xor/Xnor),
	// pruning between folds so intermediate sets stay bounded. The
	// negation for inverting kinds is applied once at the end.
	op, invert := foldOp(kind)
	partial, psig := s.cuts[fanin[0]], s.sigs[fanin[0]]
	if kind == netlist.Not || kind == netlist.Buf {
		ps := sc.pending[:0]
		for i := range partial {
			ps = append(ps, pendingCut{leaves: partial[i].Leaves, sig: psig[i], a: i})
		}
		sc.pending = ps
		kept := sc.prune(ps, opt.MaxCuts)
		out := make([]Cut, len(kept), len(kept)+1)
		sc.psig = sc.psig[:0]
		for i, p := range kept {
			t := partial[p.a].Table
			if kind == netlist.Not {
				t = t.Not()
			}
			out[i] = Cut{Leaves: partial[p.a].Leaves, Table: t}
			sc.psig = append(sc.psig, p.sig)
		}
		return sc.finish(id, out, sc.psig, nil)
	}

	// For each fanin pair product, first collect feasible merged leaf sets
	// (into the shared slab, not one allocation per pair), prune and
	// truncate on leaf sets alone, and only then compute tables for the
	// survivors: for a fixed root and fanin prefix, the cut function is
	// determined by the leaf set, so duplicates and dominated cuts can be
	// discarded before paying for table expansion. Per-set signature words
	// make both the feasibility test (popcount is a lower bound on the
	// distinct-leaf count) and the dominance test (subset implies
	// signature subset) mostly one word operation.
	var spare []netlist.ID
	for fi := 1; fi < len(fanin); fi++ {
		next := s.cuts[fanin[fi]]
		// psig may be sc.psig, which is rewritten only after this copy.
		sc.la, sc.sa = appendSide(sc.la[:0], sc.sa[:0], partial, psig)
		sc.lb, sc.sb = appendSide(sc.lb[:0], sc.sb[:0], next, s.sigs[fanin[fi]])
		kept := sc.mergeFold(opt)
		buf := sc.leafBuf(kept, true)
		merged := make([]Cut, len(kept), len(kept)+1)
		sc.psig = sc.psig[:0]
		for i, p := range kept {
			merged[i] = combine2(op, &partial[p.a], &next[p.b], takeLeaves(&buf, p.leaves))
			sc.psig = append(sc.psig, p.sig)
		}
		partial, psig, spare = merged, sc.psig, buf
	}
	if invert {
		for i := range partial {
			partial[i].Table = partial[i].Table.Not()
		}
	}
	return sc.finish(id, partial, psig, spare)
}

// enumerateLut computes the cuts of a k-input truth-table cell. LUTs have no
// associative fold, so the merge tracks, for every feasible merged leaf set,
// which cut was chosen at each fanin position; tables are computed only for
// the pruned survivors by expanding each chosen fanin cut onto the merged
// leaf set and composing through the node's mask (truth.Compose). Dedup and
// dominance pruning on leaf sets alone stays sound for the same reason as in
// enumerateGate: for a fixed root, the cut function is determined by the
// leaf set. It returns the set and its signatures.
func enumerateLut(n *netlist.Netlist, id netlist.ID, s *sets, opt Options, sc *scratch) ([]Cut, []uint64) {
	fanin := n.Fanin(id)
	mask := n.Node(id).Mask

	partial, psig := sc.sel[:0], s.sigs[fanin[0]]
	for ci := range s.cuts[fanin[0]] {
		partial = append(partial, selCut{leaves: s.cuts[fanin[0]][ci].Leaves, choice: [netlist.MaxLutInputs]int{ci}})
	}
	var spare []netlist.ID
	for fi := 1; fi < len(fanin); fi++ {
		sc.la = sc.la[:0]
		for i := range partial {
			sc.la = append(sc.la, partial[i].leaves)
		}
		// psig may be sc.psig, which is rewritten only after this copy.
		sc.sa = append(sc.sa[:0], psig...)
		sc.lb, sc.sb = appendSide(sc.lb[:0], sc.sb[:0], s.cuts[fanin[fi]], s.sigs[fanin[fi]])
		kept := sc.mergeFold(opt)
		// Only partial's choices are read from here on, so the held
		// buffer its leaves point into may be overwritten.
		buf := sc.leafBuf(kept, fi == len(fanin)-1)
		merged := sc.selNext[:0]
		sc.psig = sc.psig[:0]
		for _, p := range kept {
			merged = append(merged, selCut{leaves: takeLeaves(&buf, p.leaves), choice: partial[p.a].choice})
			merged[len(merged)-1].choice[fi] = p.b
			sc.psig = append(sc.psig, p.sig)
		}
		sc.selNext = partial // the next fold's merged reuses it
		partial, psig, spare = merged, sc.psig, buf
	}

	out := make([]Cut, 0, len(partial)+1)
	var args [netlist.MaxLutInputs]truth.Table
	for i := range partial {
		sel := &partial[i]
		for j, f := range fanin {
			args[j] = expandOnto(&s.cuts[f][sel.choice[j]], sel.leaves)
		}
		out = append(out, Cut{Leaves: sel.leaves, Table: truth.Compose(mask, args[:len(fanin)])})
	}
	sc.sel = partial // the next LUT's first-fanin selections reuse it
	return sc.finish(id, out, psig, spare)
}

type binOp uint8

const (
	opAnd binOp = iota
	opOr
	opXor
)

func foldOp(kind netlist.Kind) (binOp, bool) {
	switch kind {
	case netlist.And:
		return opAnd, false
	case netlist.Nand:
		return opAnd, true
	case netlist.Or:
		return opOr, false
	case netlist.Nor:
		return opOr, true
	case netlist.Xor:
		return opXor, false
	case netlist.Xnor:
		return opXor, true
	case netlist.Not, netlist.Buf:
		return opAnd, false // unused
	}
	panic("cuts: foldOp on non-gate kind " + kind.String())
}

// expandOnto re-expresses a cut's table over a merged leaf set that contains
// the cut's own leaves. Both leaf lists are sorted, so a single linear scan
// recovers each leaf's variable position — this is the hottest allocation
// site of cut enumeration, so no map here.
func expandOnto(c *Cut, leaves []netlist.ID) truth.Table {
	var m [truth.MaxVars]int
	i := 0
	for j, l := range c.Leaves {
		for leaves[i] != l {
			i++
		}
		m[j] = i
	}
	return c.Table.Expand(m[:len(c.Leaves)], len(leaves))
}

// combine2 merges two cuts under a binary operation on the merged leaf set.
func combine2(op binOp, a, b *Cut, leaves []netlist.ID) Cut {
	ta, tb := expandOnto(a, leaves), expandOnto(b, leaves)
	var t truth.Table
	switch op {
	case opAnd:
		t = ta.And(tb)
	case opOr:
		t = ta.Or(tb)
	case opXor:
		t = ta.Xor(tb)
	}
	return Cut{Leaves: leaves, Table: t}
}

// pendingCut is a feasible merged leaf set whose table has not been
// computed yet; a and b index the parent cuts it merges, and sig is
// leafSig(leaves).
type pendingCut struct {
	leaves []netlist.ID
	sig    uint64
	a, b   int
}

// leafSig hashes a leaf set into a 64-bit signature: bit (id mod 64) per
// leaf. Signatures underapproximate set relations soundly: popcount(sig)
// never exceeds the set size, and A ⊆ B implies sig(A) &^ sig(B) == 0.
func leafSig(ls []netlist.ID) uint64 {
	var s uint64
	for _, l := range ls {
		s |= 1 << (uint(l) & 63)
	}
	return s
}

// prune removes duplicate and dominated leaf sets from ps (a set is
// dominated when it is a strict superset of another) and truncates to
// maxCuts, preferring sets with fewer leaves. It returns the survivors
// ordered by (leaf count, leaf order), in sc.kept until the next call; of
// equal sets it keeps the one with the least (a, b).
//
// A counting pass buckets ps by leaf count. Bucket by bucket, smallest
// first, every set is tested against the sets kept so far, which are all
// smaller, so a subset among them is a strict one; only the survivors are
// sorted, and adjacent equal sets are dropped. The dominance test checks
// signatures first, so most non-subset pairs cost one word operation.
func (sc *scratch) prune(ps []pendingCut, maxCuts int) []pendingCut {
	var start [truth.MaxVars + 2]int // bucket s is byLen[start[s]:start[s+1]]
	for _, p := range ps {
		start[len(p.leaves)+1]++
	}
	for s := 1; s < len(start); s++ {
		start[s] += start[s-1]
	}
	if cap(sc.byLen) < len(ps) {
		sc.byLen = make([]pendingCut, len(ps))
	}
	byLen := sc.byLen[:len(ps)]
	fill := start
	for _, p := range ps {
		byLen[fill[len(p.leaves)]] = p
		fill[len(p.leaves)]++
	}
	kept := sc.kept[:0]
	for s := 0; s+1 < len(start) && len(kept) < maxCuts; s++ {
		survivors := byLen[start[s]:start[s]]
		for _, c := range byLen[start[s]:start[s+1]] {
			if !dominated(kept, c) {
				survivors = append(survivors, c)
			}
		}
		slices.SortFunc(survivors, func(x, y pendingCut) int {
			if c := slices.Compare(x.leaves, y.leaves); c != 0 {
				return c
			}
			if x.a != y.a {
				return x.a - y.a
			}
			return x.b - y.b
		})
		for i, c := range survivors {
			if i > 0 && slices.Equal(survivors[i-1].leaves, c.leaves) {
				continue
			}
			if kept = append(kept, c); len(kept) >= maxCuts {
				break
			}
		}
	}
	sc.kept = kept
	return kept
}

// dominated reports whether some set of kept is a subset of c.
func dominated(kept []pendingCut, c pendingCut) bool {
	for _, k := range kept {
		if k.sig&^c.sig == 0 && isSubset(k.leaves, c.leaves) {
			return true
		}
	}
	return false
}

func isSubset(a, b []netlist.ID) bool {
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}

// AverageCutsPerGate returns the mean number of cuts per combinational gate,
// the statistic the paper reports as 15-35 for k=6.
func AverageCutsPerGate(n *netlist.Netlist, sets map[netlist.ID][]Cut) float64 {
	gates := n.Gates()
	if len(gates) == 0 {
		return 0
	}
	total := 0
	for _, g := range gates {
		total += len(sets[g])
	}
	return float64(total) / float64(len(gates))
}
