// Package aggregate implements Algorithm 2 of the paper (Section II-B):
// grouping matched bitslices into multibit modules. Two aggregation
// patterns are used: common signals (multiplexers share a select) and
// propagated signals (adder carry chains, subtractor borrow chains, parity
// trees). It also implements the module-fusion post-processing of Section
// II-F. Its thresholds are constants: two slices form a module, as in the
// paper, and a parity tree needs three xor matches.
package aggregate

import (
	"fmt"
	"sort"

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
func CommonSignal(nl *netlist.Netlist, res *bitslice.Result) []*module.Module {
	var out []*module.Module
	out = append(out, muxGroups(nl, res.Matches(truth.ClassMux2), truth.ClassMux2)...)
	out = append(out, muxGroups(nl, res.Matches(truth.ClassMux2Inv), truth.ClassMux2Inv)...)
	out = append(out, mux4Groups(nl, res.Matches(truth.ClassMux4))...)
	out = append(out, gatingGroups(nl, res)...)
	out = append(out, unknownCandidates(nl, res)...)
	return out
}

// gatingGroups aggregates word-wide gating functions: and/and-not/or
// slices that share one control argument across at least four bits. These
// are the "gating function" modules that zero out or force a word (the
// oc8051 trojan payload of Section V-D is exactly such a module).
func gatingGroups(nl *netlist.Netlist, res *bitslice.Result) []*module.Module {
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
	classes := []truth.Class{truth.ClassHACarry, truth.ClassAndNot, truth.ClassOr2}
	type key struct {
		class truth.Class
		ctl   netlist.ID
	}
	groups := make(map[key][]*bitslice.Match)
	for _, class := range classes {
		for _, m := range res.Matches(class) {
			if muxInterior[m.Root] {
				continue
			}
			for _, a := range m.Args {
				groups[key{class, a}] = append(groups[key{class, a}], m)
			}
		}
	}
	var keys []key
	for k, g := range groups {
		if len(dedupeByRoot(g)) >= minGatingBits {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].class != keys[j].class {
			return keys[i].class < keys[j].class
		}
		return keys[i].ctl < keys[j].ctl
	})
	var out []*module.Module
	for _, k := range keys {
		group := dedupeByRoot(groups[k])
		// The control must not be a data bit: require that it is the only
		// argument shared by every slice.
		shared := true
		for _, m := range group {
			found := false
			for _, a := range m.Args {
				if a == k.ctl {
					found = true
				}
			}
			if !found {
				shared = false
				break
			}
		}
		if !shared {
			continue
		}
		mod := buildSliceModule(module.Gating, group)
		mod.Name = fmt.Sprintf("gating-%s[%d]", k.class, len(group))
		mod.SetPort("ctl", []netlist.ID{k.ctl})
		mod.SetPort("out", roots(group))
		out = append(out, mod)
	}
	return out
}

// muxGroups groups 2:1 mux matches by select signal.
func muxGroups(nl *netlist.Netlist, ms []*bitslice.Match, class truth.Class) []*module.Module {
	bySel := make(map[netlist.ID][]*bitslice.Match)
	for _, m := range ms {
		bySel[m.Args[2]] = append(bySel[m.Args[2]], m)
	}
	var sels []netlist.ID
	for s := range bySel {
		sels = append(sels, s)
	}
	sort.Slice(sels, func(i, j int) bool { return sels[i] < sels[j] })

	var out []*module.Module
	for _, sel := range sels {
		group := dedupeByRoot(bySel[sel])
		if len(group) < minSlices {
			continue
		}
		mod := buildSliceModule(module.Mux, group)
		mod.SetPort("sel", []netlist.ID{sel})
		mod.SetPort("out", roots(group))
		mod.SetPort("d0", argColumn(group, 0))
		mod.SetPort("d1", argColumn(group, 1))
		if class == truth.ClassMux2Inv {
			mod.Name = fmt.Sprintf("mux-inv[%d]", len(group))
		}
		out = append(out, mod)
	}
	return out
}

// mux4Groups groups 4:1 mux matches by their select pair.
func mux4Groups(nl *netlist.Netlist, ms []*bitslice.Match) []*module.Module {
	type selKey struct{ a, b netlist.ID }
	bySel := make(map[selKey][]*bitslice.Match)
	for _, m := range ms {
		s0, s1 := m.Args[4], m.Args[5]
		if s1 < s0 {
			s0, s1 = s1, s0
		}
		bySel[selKey{s0, s1}] = append(bySel[selKey{s0, s1}], m)
	}
	var keys []selKey
	for k := range bySel {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	var out []*module.Module
	for _, k := range keys {
		group := dedupeByRoot(bySel[k])
		if len(group) < minSlices {
			continue
		}
		mod := buildSliceModule(module.Mux, group)
		mod.Name = fmt.Sprintf("mux4[%d]", len(group))
		mod.SetPort("sel", []netlist.ID{k.a, k.b})
		mod.SetPort("out", roots(group))
		out = append(out, mod)
	}
	return out
}

// unknownCandidates aggregates unknown-function bitslices connected by a
// common signal into candidate modules for a human analyst (Section
// II-B.1). Requires bitslice.Find to have run with KeepUnknown.
func unknownCandidates(nl *netlist.Netlist, res *bitslice.Result) []*module.Module {
	if res.UnknownClasses == nil {
		return nil
	}
	var keys []string
	for k := range res.UnknownClasses {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []*module.Module
	for _, k := range keys {
		ms := dedupeByRoot(res.UnknownClasses[k])
		if len(ms) < minSlices+1 {
			continue
		}
		// Group by a shared argument signal: pick the argument that occurs
		// in the most matches.
		occ := make(map[netlist.ID][]*bitslice.Match)
		for _, m := range ms {
			for _, a := range m.Args {
				occ[a] = append(occ[a], m)
			}
		}
		var best netlist.ID = netlist.Nil
		for a, group := range occ {
			if best == netlist.Nil || len(group) > len(occ[best]) ||
				(len(group) == len(occ[best]) && a < best) {
				best = a
			}
		}
		if best == netlist.Nil || len(occ[best]) < minSlices+1 {
			continue
		}
		group := dedupeByRoot(occ[best])
		mod := buildSliceModule(module.Candidate, group)
		mod.Name = fmt.Sprintf("candidate[%d]", len(group))
		mod.SetPort("common", []netlist.ID{best})
		mod.SetPort("out", roots(group))
		mod.SetAttr("function", k)
		out = append(out, mod)
	}
	return out
}

// PropagatedSignal aggregates carry/borrow chains into adders and
// subtractors and xor trees into parity trees (Section II-B.2).
func PropagatedSignal(nl *netlist.Netlist, res *bitslice.Result) []*module.Module {
	var out []*module.Module
	out = append(out, chainModules(nl, res, truth.ClassFACarry, module.Adder)...)
	out = append(out, chainModules(nl, res, truth.ClassSubBorrow, module.Subtractor)...)
	out = append(out, parityTrees(nl, res)...)
	return out
}

// chainModules finds maximal chains of carry-class matches where the root
// of one match is an argument of the next, then attaches the matching sum
// slices and the bit-0 half slice.
func chainModules(nl *netlist.Netlist, res *bitslice.Result, carryClass truth.Class, typ module.Type) []*module.Module {
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
	// Sum-slice lookup: sum matches keyed by sorted arg set.
	sumClass := truth.ClassFASum
	if carryClass == truth.ClassSubBorrow {
		// Subtractor difference slices synthesize as plain xor3 as well
		// (a ^ b ^ bin); keep FASum and also accept Xor3Not.
		sumClass = truth.ClassFASum
	}
	sumByArgs := make(map[string]*bitslice.Match)
	for _, m := range res.Matches(sumClass) {
		sumByArgs[netlist.Key(netlist.SortedIDs(m.Args))] = m
	}
	for _, m := range res.Matches(truth.ClassXor3Not) {
		if k := netlist.Key(netlist.SortedIDs(m.Args)); sumByArgs[k] == nil {
			sumByArgs[k] = m
		}
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
		for i, m := range chain {
			elements = append(elements, m.Cone...)
			// Operand bits: the two args that are not the propagated-in
			// signal.
			var ops []netlist.ID
			for _, a := range m.Args {
				if i > 0 && a == chain[i-1].Root {
					continue
				}
				ops = append(ops, a)
			}
			if i == 0 {
				// Head: one arg may be the bit-0 half-carry; detect below.
				ops = headOperands(nl, res, m, &elements, &sumOuts, &aWord, &bWord, carryClass)
			}
			if len(ops) >= 2 {
				aWord = append(aWord, ops[0])
				bWord = append(bWord, ops[1])
			}
			if s, ok := sumByArgs[netlist.Key(netlist.SortedIDs(m.Args))]; ok {
				elements = append(elements, s.Cone...)
				sumOuts = append(sumOuts, s.Root)
			}
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

// headOperands handles the first chain element: if one of its arguments is
// the root of a bit-0 half slice (and2 for adders, and-not for
// subtractors), that half slice and its xor2 sum are pulled into the
// module. It returns the operand args of the head (excluding the bit-0
// carry).
func headOperands(nl *netlist.Netlist, res *bitslice.Result, head *bitslice.Match,
	elements *[]netlist.ID, sumOuts, aWord, bWord *[]netlist.ID, carryClass truth.Class) []netlist.ID {

	halfClass := truth.ClassHACarry
	if carryClass == truth.ClassSubBorrow {
		halfClass = truth.ClassAndNot
	}
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
		return head.Args
	}
	*elements = append(*elements, half.Cone...)
	// Bit-0 operands and sum (xor2 over the same args).
	*aWord = append(*aWord, half.Args[0])
	*bWord = append(*bWord, half.Args[1])
	halfKey := netlist.Key(netlist.SortedIDs(half.Args))
	for _, s := range res.Matches(truth.ClassHASum) {
		if netlist.Key(netlist.SortedIDs(s.Args)) == halfKey {
			*elements = append(*elements, s.Cone...)
			*sumOuts = append(*sumOuts, s.Root)
			break
		}
	}
	return ops
}

// parityTrees finds connected components of xor-family matches linked by
// propagated outputs.
func parityTrees(nl *netlist.Netlist, res *bitslice.Result) []*module.Module {
	var xs []*bitslice.Match
	for _, c := range []truth.Class{truth.ClassHASum, truth.ClassFASum} {
		xs = append(xs, res.Matches(c)...)
	}
	xs = dedupeByRoot(xs)
	byRoot := make(map[netlist.ID]*bitslice.Match, len(xs))
	for _, m := range xs {
		byRoot[m.Root] = m
	}
	// Union-find over matches.
	parent := make(map[*bitslice.Match]*bitslice.Match)
	var find func(m *bitslice.Match) *bitslice.Match
	find = func(m *bitslice.Match) *bitslice.Match {
		if parent[m] == nil || parent[m] == m {
			parent[m] = m
			return m
		}
		parent[m] = find(parent[m])
		return parent[m]
	}
	union := func(a, b *bitslice.Match) { parent[find(a)] = find(b) }
	for _, m := range xs {
		for _, a := range m.Args {
			if p, ok := byRoot[a]; ok && p != m {
				union(p, m)
			}
		}
	}
	comps := make(map[*bitslice.Match][]*bitslice.Match)
	for _, m := range xs {
		r := find(m)
		comps[r] = append(comps[r], m)
	}
	var reps []*bitslice.Match
	for r := range comps {
		reps = append(reps, r)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].Root < reps[j].Root })

	var out []*module.Module
	for _, r := range reps {
		comp := comps[r]
		if len(comp) < minParity {
			continue
		}
		// A parity tree has exactly one root match whose output feeds no
		// other member; adder sum columns (disconnected xors) never reach
		// minParity because they are singletons.
		var elements, leaves []netlist.ID
		rootCount := 0
		var treeRoot netlist.ID
		memberRoots := make(map[netlist.ID]bool, len(comp))
		for _, m := range comp {
			memberRoots[m.Root] = true
		}
		for _, m := range comp {
			elements = append(elements, m.Cone...)
			feeds := false
			for _, o := range comp {
				if o == m {
					continue
				}
				for _, a := range o.Args {
					if a == m.Root {
						feeds = true
					}
				}
			}
			if !feeds {
				rootCount++
				treeRoot = m.Root
			}
			for _, a := range m.Args {
				if !memberRoots[a] {
					leaves = append(leaves, a)
				}
			}
		}
		if rootCount != 1 {
			continue // not a single-output tree
		}
		mod := module.New(module.ParityTree, len(leaves), elements)
		mod.Name = fmt.Sprintf("parity-tree[%d]", len(leaves))
		mod.SetPort("in", leaves)
		mod.SetPort("out", []netlist.ID{treeRoot})
		out = append(out, mod)
	}
	return out
}

// --- helpers ---

func dedupeByRoot(ms []*bitslice.Match) []*bitslice.Match {
	seen := make(map[netlist.ID]bool, len(ms))
	var out []*bitslice.Match
	for _, m := range ms {
		if !seen[m.Root] {
			seen[m.Root] = true
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Root < out[j].Root })
	return out
}

func roots(ms []*bitslice.Match) []netlist.ID { return matchRoots(ms) }

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
	slices := make([][]netlist.ID, len(group))
	for i, m := range group {
		elements = append(elements, m.Cone...)
		slices[i] = append([]netlist.ID(nil), m.Cone...)
	}
	mod := module.New(typ, len(group), elements)
	mod.Slices = slices
	return mod
}
