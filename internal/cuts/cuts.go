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
	"netlistre/internal/truth"
)

// Cut is a k-feasible cut of some root node, together with the Boolean
// function of the root in terms of the cut leaves (leaf j is variable j of
// the table).
type Cut struct {
	Leaves []netlist.ID // sorted ascending
	Table  truth.Table
}

// trivially reports whether the cut is the root's trivial cut {root}.
func (c Cut) trivial(root netlist.ID) bool {
	return len(c.Leaves) == 1 && c.Leaves[0] == root
}

// Options configures enumeration.
type Options struct {
	// K is the maximum number of cut leaves. The paper fixes K=6; values
	// above truth.MaxVars are rejected.
	K int
	// MaxCuts bounds the number of cuts kept per node (0 means the
	// default). Smaller cuts are preferred when truncating.
	MaxCuts int
	// Interrupt, when non-nil, is polled every few nodes during
	// enumeration; when it returns true, Enumerate stops and returns the
	// cut sets computed so far (downstream matching simply sees fewer
	// candidates).
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
func EnumerateByID(n *netlist.Netlist, opt Options) [][]Cut {
	if opt.K <= 0 || opt.K > truth.MaxVars {
		opt.K = truth.MaxVars
	}
	if opt.MaxCuts <= 0 {
		opt.MaxCuts = DefaultMaxCuts
	}
	res := make([][]Cut, n.Len())
	var sc scratch
	for i, id := range n.TopoOrder() {
		if i&63 == 0 && opt.Interrupt != nil && opt.Interrupt() {
			return res
		}
		switch kind := n.Kind(id); {
		case kind == netlist.Input || kind == netlist.Latch:
			res[id] = []Cut{{Leaves: []netlist.ID{id}, Table: truth.Var(0, 1)}}
		case kind == netlist.Const0:
			res[id] = []Cut{{Table: truth.Const(false, 0)}}
		case kind == netlist.Const1:
			res[id] = []Cut{{Table: truth.Const(true, 0)}}
		case kind == netlist.Lut:
			res[id] = enumerateLut(n, id, res, opt, &sc)
		default:
			res[id] = enumerateGate(n, id, res, opt, &sc)
		}
	}
	return res
}

// scratch holds the buffers one enumeration reuses from fold to fold and
// node to node: the two sides of a fold (leaf sets la, lb and signature
// words sa, sb), the leaf slab the merged leaf sets are written into, the
// pending cuts that point into it, prune's buckets and survivors (byLen,
// kept), and enumerateLut's intermediate selections (sel, selNext) with
// their leaves (held). No returned Cut references scratch memory: the last
// fold of a node copies its kept leaf sets into a fresh allocation
// (leafBuf).
type scratch struct {
	la, lb       [][]netlist.ID
	sa, sb       []uint64
	slab         []netlist.ID
	pending      []pendingCut
	byLen, kept  []pendingCut
	sel, selNext []selCut
	held         []netlist.ID
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

// appendSide appends the leaf sets and signatures of cs to one fold side.
func appendSide(ls [][]netlist.ID, ss []uint64, cs []Cut) ([][]netlist.ID, []uint64) {
	for _, c := range cs {
		ls = append(ls, c.Leaves)
		ss = append(ss, leafSig(c.Leaves))
	}
	return ls, ss
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

func enumerateGate(n *netlist.Netlist, id netlist.ID, res [][]Cut, opt Options, sc *scratch) []Cut {
	fanin := n.Fanin(id)
	kind := n.Kind(id)

	// Fold the fanin cut sets pairwise under the gate's associative
	// operation (And for And/Nand, Or for Or/Nor, Xor for Xor/Xnor),
	// pruning between folds so intermediate sets stay bounded. The
	// negation for inverting kinds is applied once at the end.
	op, invert := foldOp(kind)
	partial := res[fanin[0]]
	if kind == netlist.Not || kind == netlist.Buf {
		ps := sc.pending[:0]
		for i, c := range partial {
			ps = append(ps, pendingCut{leaves: c.Leaves, sig: leafSig(c.Leaves), a: i})
		}
		sc.pending = ps
		kept := sc.prune(ps, opt.MaxCuts)
		out := make([]Cut, len(kept), len(kept)+1)
		for i, p := range kept {
			t := partial[p.a].Table
			if kind == netlist.Not {
				t = t.Not()
			}
			out[i] = Cut{Leaves: partial[p.a].Leaves, Table: t}
		}
		return append(out, trivialCut(id, nil))
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
		next := res[fanin[fi]]
		sc.la, sc.sa = appendSide(sc.la[:0], sc.sa[:0], partial)
		sc.lb, sc.sb = appendSide(sc.lb[:0], sc.sb[:0], next)
		kept := sc.mergeFold(opt)
		buf := sc.leafBuf(kept, true)
		merged := make([]Cut, len(kept), len(kept)+1)
		for i, p := range kept {
			merged[i] = combine2(op, partial[p.a], next[p.b], takeLeaves(&buf, p.leaves))
		}
		partial, spare = merged, buf
	}
	if invert {
		for i := range partial {
			partial[i].Table = partial[i].Table.Not()
		}
	}
	return append(partial, trivialCut(id, spare))
}

// enumerateLut computes the cuts of a k-input truth-table cell. LUTs have no
// associative fold, so the merge tracks, for every feasible merged leaf set,
// which cut was chosen at each fanin position; tables are computed only for
// the pruned survivors by expanding each chosen fanin cut onto the merged
// leaf set and composing through the node's mask (truth.Compose). Dedup and
// dominance pruning on leaf sets alone stays sound for the same reason as in
// enumerateGate: for a fixed root, the cut function is determined by the
// leaf set.
func enumerateLut(n *netlist.Netlist, id netlist.ID, res [][]Cut, opt Options, sc *scratch) []Cut {
	fanin := n.Fanin(id)
	mask := n.Node(id).Mask

	partial := sc.sel[:0]
	for ci, c := range res[fanin[0]] {
		partial = append(partial, selCut{leaves: c.Leaves, choice: [netlist.MaxLutInputs]int{ci}})
	}
	var spare []netlist.ID
	for fi := 1; fi < len(fanin); fi++ {
		sc.la, sc.sa = sc.la[:0], sc.sa[:0]
		for _, a := range partial {
			sc.la = append(sc.la, a.leaves)
			sc.sa = append(sc.sa, leafSig(a.leaves))
		}
		sc.lb, sc.sb = appendSide(sc.lb[:0], sc.sb[:0], res[fanin[fi]])
		kept := sc.mergeFold(opt)
		// Only partial's choices are read from here on, so the held
		// buffer its leaves point into may be overwritten.
		buf := sc.leafBuf(kept, fi == len(fanin)-1)
		merged := sc.selNext[:0]
		for _, p := range kept {
			s := selCut{leaves: takeLeaves(&buf, p.leaves), choice: partial[p.a].choice}
			s.choice[fi] = p.b
			merged = append(merged, s)
		}
		sc.selNext = partial // the next fold's merged reuses it
		partial, spare = merged, buf
	}

	out := make([]Cut, 0, len(partial)+1)
	var args [netlist.MaxLutInputs]truth.Table
	for _, s := range partial {
		for j := range fanin {
			args[j] = expandOnto(res[fanin[j]][s.choice[j]], s.leaves)
		}
		out = append(out, Cut{Leaves: s.leaves, Table: truth.Compose(mask, args[:len(fanin)])})
	}
	sc.sel = partial // the next LUT's first-fanin selections reuse it
	return append(out, trivialCut(id, spare))
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
func expandOnto(c Cut, leaves []netlist.ID) truth.Table {
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
func combine2(op binOp, a, b Cut, leaves []netlist.ID) Cut {
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
