// Package aggregate implements Algorithm 2 of the paper (Section II-B):
// grouping matched bitslices into multibit modules. Two aggregation
// patterns are used: common signals (multiplexers share a select) and
// propagated signals (adder carry chains, subtractor borrow chains, parity
// trees). It also implements the module-fusion post-processing of Section
// II-F. Its thresholds are constants: two slices form a module, as in the
// paper, and a parity tree needs three xor matches.
package aggregate

import (
	"cmp"
	"fmt"
	"slices"

	"netlistre/internal/bitslice"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/truth"
)

const (
	// minSlices is the smallest slice count that forms a module (the
	// paper uses 2).
	minSlices = 2
	// minParity is the smallest xor-match count that forms a parity tree;
	// 3 avoids classifying single adder-style xors as trees.
	minParity = 3
	// minGatingBits is the smallest word a gating module spans.
	minGatingBits = 4
)

// CommonSignal aggregates mux-family bitslices sharing select signals
// (Section II-B.1) and unknown bitslices sharing a common signal into
// candidate modules.
func CommonSignal(res *bitslice.Result) []*module.Module {
	var out []*module.Module
	out = append(out, muxGroups(res.Matches(truth.ClassMux2), truth.ClassMux2)...)
	out = append(out, muxGroups(res.Matches(truth.ClassMux2Inv), truth.ClassMux2Inv)...)
	out = append(out, mux4Groups(res.Matches(truth.ClassMux4))...)
	out = append(out, gatingGroups(res)...)
	out = append(out, unknownCandidates(res)...)
	return out
}

// gatingGroups aggregates word-wide gating functions: and/and-not/or
// slices of one class that share one argument, the control, across at
// least four bits. These are the "gating function" modules that zero out
// or force a word (the oc8051 trojan payload of Section V-D is exactly
// such a module). Every argument shared by four slices forms a group.
func gatingGroups(res *bitslice.Result) []*module.Module {
	// Gates that already participate in a mux slice are mux interior, not
	// gating logic: a 2:1 mux is exactly an and-or of two gated legs, and
	// emitting its and-gates again as "gating" modules floods overlap
	// resolution with redundant candidates.
	muxInterior := make(map[netlist.ID]bool)
	for _, class := range []truth.Class{truth.ClassMux2, truth.ClassMux2Inv, truth.ClassMux4} {
		for _, m := range res.Matches(class) {
			for _, g := range m.Cone {
				muxInterior[g] = true
			}
		}
	}
	var b buckets
	for _, class := range []truth.Class{truth.ClassHACarry, truth.ClassAndNot, truth.ClassOr2} {
		for _, m := range res.Matches(class) {
			if muxInterior[m.Root] {
				continue
			}
			for _, a := range m.Args {
				b.add(groupKey{netlist.ID(class), a}, m)
			}
		}
	}
	var out []*module.Module
	b.each(minGatingBits, func(k groupKey, group []*bitslice.Match) {
		mod := buildSliceModule(module.Gating, group)
		mod.Name = fmt.Sprintf("gating-%s[%d]", truth.Class(k[0]), len(group))
		mod.SetPort("ctl", []netlist.ID{k[1]})
		mod.SetPort("out", matchRoots(group))
		out = append(out, mod)
	})
	return out
}

// muxGroups groups 2:1 mux matches by select signal.
func muxGroups(ms []*bitslice.Match, class truth.Class) []*module.Module {
	var b buckets
	for _, m := range ms {
		b.add(groupKey{m.Args[2]}, m)
	}
	var out []*module.Module
	b.each(minSlices, func(k groupKey, group []*bitslice.Match) {
		mod := buildSliceModule(module.Mux, group)
		mod.SetPort("sel", []netlist.ID{k[0]})
		mod.SetPort("out", matchRoots(group))
		mod.SetPort("d0", argColumn(group, 0))
		mod.SetPort("d1", argColumn(group, 1))
		if class == truth.ClassMux2Inv {
			mod.Name = fmt.Sprintf("mux-inv[%d]", len(group))
		}
		out = append(out, mod)
	})
	return out
}

// mux4Groups groups 4:1 mux matches by their select pair.
func mux4Groups(ms []*bitslice.Match) []*module.Module {
	var b buckets
	for _, m := range ms {
		b.add(groupKey{min(m.Args[4], m.Args[5]), max(m.Args[4], m.Args[5])}, m)
	}
	var out []*module.Module
	b.each(minSlices, func(k groupKey, group []*bitslice.Match) {
		mod := buildSliceModule(module.Mux, group)
		mod.Name = fmt.Sprintf("mux4[%d]", len(group))
		mod.SetPort("sel", []netlist.ID{k[0], k[1]})
		mod.SetPort("out", matchRoots(group))
		out = append(out, mod)
	})
	return out
}

// unknownCandidates aggregates unknown-function bitslices connected by a
// common signal into candidate modules for a human analyst (Section
// II-B.1). Requires bitslice.Find to have run with KeepUnknown.
func unknownCandidates(res *bitslice.Result) []*module.Module {
	fns := make([]string, 0, len(res.UnknownClasses))
	for fn := range res.UnknownClasses {
		fns = append(fns, fn)
	}
	slices.Sort(fns)
	var out []*module.Module
	for _, fn := range fns {
		// Group by a shared argument signal: the argument that occurs in
		// the most matches, the lowest on a tie.
		var b buckets
		for _, m := range dedupeByRoot(res.UnknownClasses[fn]) {
			for _, a := range m.Args {
				b.add(groupKey{a}, m)
			}
		}
		var common netlist.ID
		var group []*bitslice.Match
		b.each(minSlices+1, func(k groupKey, g []*bitslice.Match) {
			if len(g) > len(group) {
				common, group = k[0], g
			}
		})
		if group == nil {
			continue
		}
		mod := buildSliceModule(module.Candidate, group)
		mod.Name = fmt.Sprintf("candidate[%d]", len(group))
		mod.SetPort("common", []netlist.ID{common})
		mod.SetPort("out", matchRoots(group))
		mod.SetAttr("function", fn)
		out = append(out, mod)
	}
	return out
}

// PropagatedSignal aggregates carry/borrow chains into adders and
// subtractors and xor trees into parity trees (Section II-B.2).
func PropagatedSignal(res *bitslice.Result) []*module.Module {
	sums := newSumIndex(res)
	var out []*module.Module
	out = append(out, chainModules(res, sums, truth.ClassFACarry, module.Adder)...)
	out = append(out, chainModules(res, sums, truth.ClassSubBorrow, module.Subtractor)...)
	out = append(out, parityTrees(res)...)
	return out
}

// argKey is an argument set of at most three signals: the IDs sorted and
// padded with Nil, so a pair never equals a triple.
type argKey [3]netlist.ID

func argKeyOf(args []netlist.ID) argKey {
	k := argKey{netlist.Nil, netlist.Nil, netlist.Nil}
	copy(k[:], args)
	slices.Sort(k[:len(args)])
	return k
}

// sumIndex finds the sum slice over an argument set. Adder sums and
// subtractor differences both synthesize as plain xor3 (a ^ b ^ cin,
// a ^ b ^ bin), and the bit-0 sum as xor2.
type sumIndex map[argKey]*bitslice.Match

// newSumIndex indexes the last FASum match over each triple, else the
// first Xor3Not match over it, and the first HASum match over each pair.
func newSumIndex(res *bitslice.Result) sumIndex {
	idx := make(sumIndex)
	for _, m := range res.Matches(truth.ClassFASum) {
		idx[argKeyOf(m.Args)] = m
	}
	for _, class := range []truth.Class{truth.ClassXor3Not, truth.ClassHASum} {
		for _, m := range res.Matches(class) {
			if k := argKeyOf(m.Args); idx[k] == nil {
				idx[k] = m
			}
		}
	}
	return idx
}

// chainModules finds maximal chains of carry-class matches where the root
// of one match is an argument of the next, then attaches the matching sum
// slices and the bit-0 half slice.
func chainModules(res *bitslice.Result, sums sumIndex, carryClass truth.Class, typ module.Type) []*module.Module {
	carries := dedupeByRoot(res.Matches(carryClass))
	byRoot := make(map[netlist.ID]*bitslice.Match, len(carries))
	for _, m := range carries {
		byRoot[m.Root] = m
	}
	// next[m] = m' when root(m) is an argument of m'. A ripple chain has
	// exactly one such consumer inside the chain.
	next := make(map[*bitslice.Match]*bitslice.Match)
	prev := make(map[*bitslice.Match]*bitslice.Match)
	for _, m := range carries {
		for _, a := range m.Args {
			if p, ok := byRoot[a]; ok && p != m {
				// a = root of p feeds m: edge p -> m.
				if _, dup := next[p]; !dup {
					next[p] = m
				}
				if _, dup := prev[m]; !dup {
					prev[m] = p
				}
			}
		}
	}
	halfClass := truth.ClassHACarry
	if carryClass == truth.ClassSubBorrow {
		halfClass = truth.ClassAndNot
	}

	var out []*module.Module
	for _, head := range carries {
		if prev[head] != nil {
			continue // not a chain head
		}
		var chain []*bitslice.Match
		for m := head; m != nil; m = next[m] {
			if len(chain) > 0 && m == chain[0] {
				break // cycle guard
			}
			chain = append(chain, m)
		}
		if len(chain) < 2 {
			continue
		}
		var elements []netlist.ID
		var sumOuts, aWord, bWord []netlist.ID
		addSum := func(args []netlist.ID) {
			if s := sums[argKeyOf(args)]; s != nil {
				elements = append(elements, s.Cone...)
				sumOuts = append(sumOuts, s.Root)
			}
		}
		for i, m := range chain {
			elements = append(elements, m.Cone...)
			// Operand bits: the two args that are not the propagated-in
			// signal.
			var ops []netlist.ID
			if i > 0 {
				for _, a := range m.Args {
					if a != chain[i-1].Root {
						ops = append(ops, a)
					}
				}
			} else {
				var half *bitslice.Match
				ops, half = headOperands(res, m, halfClass)
				if half != nil {
					// The bit-0 half slice, its operands and its xor2 sum.
					elements = append(elements, half.Cone...)
					aWord = append(aWord, half.Args[0])
					bWord = append(bWord, half.Args[1])
					addSum(half.Args)
				}
			}
			if len(ops) >= 2 {
				aWord = append(aWord, ops[0])
				bWord = append(bWord, ops[1])
			}
			addSum(m.Args)
		}
		mod := module.New(typ, len(chain)+1, elements)
		mod.Name = fmt.Sprintf("%s[%d]", typ, len(chain)+1)
		mod.SetPort("sum", sumOuts)
		mod.SetPort("a", aWord)
		mod.SetPort("b", bWord)
		mod.SetPort("carry", matchRoots(chain))
		out = append(out, mod)
	}
	return out
}

// headOperands splits the first chain element's arguments: the first one
// that is the root of a bit-0 half slice (and2 for adders, and-not for
// subtractors) is returned as that half slice, and the rest as the head's
// operands. Without a half slice every argument is an operand.
func headOperands(res *bitslice.Result, head *bitslice.Match, halfClass truth.Class) ([]netlist.ID, *bitslice.Match) {
	var ops []netlist.ID
	var half *bitslice.Match
	for _, a := range head.Args {
		if half == nil {
			if hm, ok := res.HasClass(a, halfClass); ok {
				half = hm
				continue
			}
		}
		ops = append(ops, a)
	}
	if half == nil {
		return head.Args, nil
	}
	return ops, half
}

// parityTrees finds connected components of xor-family matches linked by
// propagated outputs.
func parityTrees(res *bitslice.Result) []*module.Module {
	xs := dedupeByRoot(slices.Concat(res.Matches(truth.ClassHASum), res.Matches(truth.ClassFASum)))
	byRoot := make(map[netlist.ID]int, len(xs))
	for i, m := range xs {
		byRoot[m.Root] = i
	}
	uf := newUnionFind(len(xs))
	for i, m := range xs {
		for _, a := range m.Args {
			if p, ok := byRoot[a]; ok && p != i {
				uf.union(p, i)
			}
		}
	}

	var out []*module.Module
	for _, comp := range uf.components(minParity) {
		// A parity tree has exactly one root match whose output feeds no
		// other member; adder sum columns (disconnected xors) never reach
		// minParity because they are singletons.
		members := make(map[netlist.ID]bool, len(comp))
		for _, i := range comp {
			members[xs[i].Root] = true
		}
		var elements, leaves []netlist.ID
		fed := make(map[netlist.ID]bool, len(comp))
		for _, i := range comp {
			m := xs[i]
			elements = append(elements, m.Cone...)
			for _, a := range m.Args {
				switch {
				case !members[a]:
					leaves = append(leaves, a)
				case a != m.Root:
					fed[a] = true
				}
			}
		}
		var treeRoots []netlist.ID
		for _, i := range comp {
			if !fed[xs[i].Root] {
				treeRoots = append(treeRoots, xs[i].Root)
			}
		}
		if len(treeRoots) != 1 {
			continue // not a single-output tree
		}
		mod := module.New(module.ParityTree, len(leaves), elements)
		mod.Name = fmt.Sprintf("parity-tree[%d]", len(leaves))
		mod.SetPort("in", leaves)
		mod.SetPort("out", treeRoots)
		out = append(out, mod)
	}
	return out
}

// --- helpers ---

// groupKey is a bucket key: a select, a select pair, a (class, control)
// pair or a shared argument, compared element by element.
type groupKey [2]netlist.ID

// buckets groups matches by key; a match may be added under several keys.
type buckets struct {
	ms      []*bitslice.Match // by add order
	entries []bucketEntry     // one per add
}

// bucketEntry is one add: the key, and the match's root with the add
// order, each packed into a uint64 so that entries sort without pointers
// (IDs are non-negative).
type bucketEntry struct{ key, rootSeq uint64 }

func pack(hi, lo netlist.ID) uint64 { return uint64(hi)<<32 | uint64(uint32(lo)) }

func (b *buckets) add(k groupKey, m *bitslice.Match) {
	b.entries = append(b.entries, bucketEntry{pack(k[0], k[1]), pack(m.Root, netlist.ID(len(b.ms)))})
	b.ms = append(b.ms, m)
}

// each visits the buckets in ascending key order and calls emit for each
// bucket that holds at least minRoots roots, with its matches sorted by
// root: at each root, the first match added.
func (b *buckets) each(minRoots int, emit func(k groupKey, group []*bitslice.Match)) {
	es := b.entries
	slices.SortFunc(es, func(x, y bucketEntry) int {
		return cmp.Or(cmp.Compare(x.key, y.key), cmp.Compare(x.rootSeq, y.rootSeq))
	})
	var group []*bitslice.Match
	for i, e := range es {
		if i == 0 || e.key != es[i-1].key || e.rootSeq>>32 != es[i-1].rootSeq>>32 {
			group = append(group, b.ms[uint32(e.rootSeq)])
		}
		if i+1 == len(es) || es[i+1].key != e.key {
			if len(group) >= minRoots {
				emit(groupKey{netlist.ID(e.key >> 32), netlist.ID(uint32(e.key))}, slices.Clone(group))
			}
			group = group[:0]
		}
	}
}

// dedupeByRoot keeps the first match at each root, sorted by root.
func dedupeByRoot(ms []*bitslice.Match) []*bitslice.Match {
	var b buckets
	for _, m := range ms {
		b.add(groupKey{}, m)
	}
	var out []*bitslice.Match
	b.each(1, func(_ groupKey, group []*bitslice.Match) { out = group })
	return out
}

// unionFind is a disjoint-set forest over the indices 0..n-1.
type unionFind []int

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = i
	}
	return u
}

func (u unionFind) find(x int) int {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

// union links a's set under b's root.
func (u unionFind) union(a, b int) { u[u.find(a)] = u.find(b) }

// components returns the sets of at least minSize members in ascending
// order of their roots, each in ascending index order.
func (u unionFind) components(minSize int) [][]int {
	byRoot := make([][]int, len(u))
	for i := range u {
		r := u.find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	var out [][]int
	for _, c := range byRoot {
		if len(c) >= minSize {
			out = append(out, c)
		}
	}
	return out
}

func matchRoots(ms []*bitslice.Match) []netlist.ID {
	out := make([]netlist.ID, len(ms))
	for i, m := range ms {
		out[i] = m.Root
	}
	return out
}

func argColumn(ms []*bitslice.Match, j int) []netlist.ID {
	out := make([]netlist.ID, len(ms))
	for i, m := range ms {
		out[i] = m.Args[j]
	}
	return out
}

// buildSliceModule creates a sliceable module whose slices are the match
// cones.
func buildSliceModule(typ module.Type, group []*bitslice.Match) *module.Module {
	var elements []netlist.ID
	parts := make([][]netlist.ID, len(group))
	for i, m := range group {
		elements = append(elements, m.Cone...)
		parts[i] = slices.Clone(m.Cone)
	}
	mod := module.New(typ, len(group), elements)
	mod.Slices = parts
	return mod
}
