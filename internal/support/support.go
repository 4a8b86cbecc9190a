// Package support implements Algorithm 5 of the paper (Section II-E):
// detection of combinational modules whose outputs all depend on the same
// set of inputs — decoders, demultiplexers and population counters. Nodes
// are grouped into equivalence classes by the input set of their full
// combinational fan-in cones, taken from netlist's one bounded support pass
// (Netlist.BoundedSupports, which merges fanin supports with
// netlist.MergeIDs) and sorted so that equal supports are adjacent, and
// candidate classes are verified with BDD-based functional checks (Section
// II-E.2). Each worker keeps one BDD manager and builder for the whole
// analysis, as the paper's CUDD manager lives for the whole run, and
// resets them before each class.
// The class bounds are constants: at most 10 shared inputs, at least 3
// outputs and at most 400 cone gates.
package support

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"netlistre/internal/bdd"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/par"
)

const (
	// maxSupport bounds the common-support size considered (BDD blowup
	// guard); the paper's decoders have narrow selects.
	maxSupport = 10
	// minOutputs is the smallest class size verified (3 outputs).
	minOutputs = 3
	// maxConeGates skips classes whose combined cone exceeds this many
	// gates (keeps candidate modules decoder-sized).
	maxConeGates = 400
)

// Options tunes the analysis.
type Options struct {
	// Workers bounds the verification worker pool (0 = GOMAXPROCS).
	// The caller's scheduler sets this so that the stage respects the
	// shared analysis-wide worker budget.
	Workers int
	// Interrupt, when non-nil, is polled between class verifications;
	// when it returns true, Analyze stops and returns the modules
	// verified so far.
	Interrupt func() bool
}

// Class is one common-support equivalence class.
type Class struct {
	Support []netlist.ID // the shared cone-input set, sorted
	Outputs []netlist.ID // gates whose cones read exactly Support
}

// Classes groups every combinational gate by the input set of its full
// fan-in cone. It returns only classes of width at most maxSupport with at
// least two outputs, sorted by first output. The supports come from
// nl.BoundedSupports(maxSupport), the one bounded support pass over the
// netlist; wide gates keep no list and join no class.
func Classes(nl *netlist.Netlist) []Class {
	sup := nl.BoundedSupports(maxSupport)
	var ids []netlist.ID
	for id := netlist.ID(0); int(id) < nl.Len(); id++ {
		if len(sup.Of(id)) > 0 && nl.Kind(id).IsGate() {
			ids = append(ids, id)
		}
	}
	// Sorting by support makes each class one run of ids, and the stable
	// sort keeps every run in ascending ID order.
	slices.SortStableFunc(ids, func(a, b netlist.ID) int { return slices.Compare(sup.Of(a), sup.Of(b)) })
	var out []Class
	for i := 0; i < len(ids); {
		s := sup.Of(ids[i])
		j := i + 1
		for j < len(ids) && slices.Equal(sup.Of(ids[j]), s) {
			j++
		}
		if j-i >= 2 {
			out = append(out, Class{Support: s, Outputs: ids[i:j:j]})
		}
		i = j
	}
	slices.SortFunc(out, func(a, b Class) int { return cmp.Compare(a.Outputs[0], b.Outputs[0]) })
	return out
}

// Analyze finds decoder, demultiplexer and population-counter modules.
// Classes are verified concurrently, each worker on its own BDD manager and
// builder, reset before every class so that no class sees another's nodes
// or variables; results are collected in class order so the output is
// deterministic.
func Analyze(nl *netlist.Netlist, opt Options) []*module.Module {
	cands := slices.DeleteFunc(Classes(nl), func(c Class) bool { return len(c.Outputs) < minOutputs })
	results := make([]*module.Module, len(cands))
	par.Do(len(cands), opt.Workers, opt.Interrupt, func(claim func() (int, bool)) {
		bld := bdd.NewBuilder(bdd.New(0), nl)
		for i, ok := claim(); ok; i, ok = claim() {
			results[i] = verifyClass(nl, bld, cands[i])
		}
	})
	var out []*module.Module
	for _, m := range results {
		if m != nil {
			out = append(out, m)
		}
	}
	return out
}

// verifyClass runs the BDD checks on one candidate class, on bld and its
// manager after resetting both.
func verifyClass(nl *netlist.Netlist, bld *bdd.Builder, c Class) *module.Module {
	cone := nl.ConeOfAll(c.Outputs)
	if len(cone.Nodes) > maxConeGates {
		return nil
	}

	mgr := bld.M
	mgr.Reset()
	bld.Reset()
	allRefs := make([]bdd.Ref, len(c.Outputs))
	err := mgr.Run(func() {
		for i, o := range c.Outputs {
			allRefs[i] = bld.Build(o)
		}
	})
	if err != nil {
		return nil
	}

	// Drop functionally-constant outputs (dead logic with full structural
	// support): they are not module outputs and would defeat the checks.
	live := c
	live.Outputs = nil
	var refs []bdd.Ref
	for i, r := range allRefs {
		if r != bdd.True && r != bdd.False {
			live.Outputs = append(live.Outputs, c.Outputs[i])
			refs = append(refs, r)
		}
	}
	if len(live.Outputs) < 2 {
		return nil
	}

	// Population counter first: its count bits are NOT mutually exclusive,
	// so there is no conflict with the decoder checks. A support of at
	// least 3 avoids classifying every half adder (a 2-input popcount) as
	// a counter.
	if len(live.Support) >= 3 {
		if m := checkPopCount(nl, mgr, bld, live, refs); m != nil {
			return m
		}
	}

	// One-hot (decoder/demux) checks over candidate output groups: the
	// whole class first, then per-gate-kind subsets — synthesized classes
	// often mix both polarities (e.g. and-gates plus their inverters),
	// which are one-hot only within a polarity group.
	groups := outputGroups(nl, live.Outputs)
	for _, group := range groups {
		gRefs := make([]bdd.Ref, len(group))
		for i, idx := range group {
			gRefs[i] = refs[idx]
		}
		// Active-high then active-low (Section II-E.2 footnote 8).
		for _, activeLow := range []bool{false, true} {
			fs := gRefs
			if activeLow {
				fs = make([]bdd.Ref, len(gRefs))
				for i, r := range gRefs {
					fs[i] = mgr.Not(r)
				}
			}
			if !mgr.Exclusive(fs) {
				continue
			}
			outs := make([]netlist.ID, len(group))
			for i, idx := range group {
				outs[i] = live.Outputs[idx]
			}
			gCone := nl.ConeOfAll(outs)
			m := module.New(module.Decoder, len(outs), gCone.Nodes)
			m.SetPort("out", outs)
			m.SetPort("in", live.Support)
			if dataIn, isDemux := demuxDataInput(mgr, bld, fs, live.Support); isDemux {
				m.Type = module.Demux
				m.Name = fmt.Sprintf("demux[%d]", len(outs))
				m.SetPort("data", []netlist.ID{dataIn})
			} else {
				m.Name = fmt.Sprintf("decoder[%d]", len(outs))
			}
			if activeLow {
				m.SetAttr("polarity", "active-low")
			}
			return m
		}
	}
	return nil
}

// outputGroups returns candidate output subsets (as indices) for the
// one-hot checks: the full set, then per-gate-kind subsets when the class
// mixes kinds.
func outputGroups(nl *netlist.Netlist, outputs []netlist.ID) [][]int {
	// LUT cells are subgrouped by truth-table mask as well as kind: on a
	// LUT-mapped netlist every output is kind Lut, but a decoder's minterm
	// cells all tabulate the same function (the input inversions live in
	// the LUT1 inverters feeding them), so the mask recovers exactly the
	// gate-kind split the mapper erased.
	type groupKey struct {
		kind netlist.Kind
		mask uint64
	}
	all := make([]int, len(outputs))
	byKey := make(map[groupKey][]int)
	for i, o := range outputs {
		all[i] = i
		n := nl.Node(o)
		k := groupKey{kind: n.Kind}
		if n.Kind == netlist.Lut {
			k.mask = n.Mask
		}
		byKey[k] = append(byKey[k], i)
	}
	groups := [][]int{all}
	if len(byKey) > 1 {
		var keys []groupKey
		for k := range byKey {
			keys = append(keys, k)
		}
		// Larger subsets first: verifyClass returns the first group that
		// passes, and a class can hold both a real decoder and a few
		// same-support bystanders (e.g. noise inverters of its outputs)
		// that also verify; the bigger, more complete module must win.
		// Kind then mask breaks size ties deterministically.
		sort.Slice(keys, func(i, j int) bool {
			if li, lj := len(byKey[keys[i]]), len(byKey[keys[j]]); li != lj {
				return li > lj
			}
			if keys[i].kind != keys[j].kind {
				return keys[i].kind < keys[j].kind
			}
			return keys[i].mask < keys[j].mask
		})
		for _, k := range keys {
			if len(byKey[k]) >= minOutputs {
				groups = append(groups, byKey[k])
			}
		}
	}
	return groups
}

// demuxDataInput looks for a support signal implied by every output: a
// common data/enable input distinguishes a demultiplexer from a plain
// decoder.
func demuxDataInput(mgr *bdd.Manager, bld *bdd.Builder, fs []bdd.Ref, sup []netlist.ID) (netlist.ID, bool) {
	for _, s := range sup {
		v, ok := bld.HasVar(s)
		if !ok {
			continue
		}
		x := mgr.Var(v)
		all := true
		for _, f := range fs {
			if mgr.And(f, mgr.Not(x)) != bdd.False { // f -> x must hold
				all = false
				break
			}
		}
		if all {
			return s, true
		}
	}
	return netlist.Nil, false
}

// checkPopCount matches each output against the symmetric count-bit
// functions of the support (Section II-E.2, footnote 9). Count bits are
// symmetric in their inputs, so no input-order search is needed.
func checkPopCount(nl *netlist.Netlist, mgr *bdd.Manager, bld *bdd.Builder, c Class, refs []bdd.Ref) *module.Module {
	if len(c.Outputs) < 2 {
		return nil
	}
	var vars []bdd.Ref
	for _, s := range c.Support {
		v, ok := bld.HasVar(s)
		if !ok {
			return nil
		}
		vars = append(vars, mgr.Var(v))
	}
	// Bit 0 of the count is the parity of the support, which every
	// accepted counter matches below. Build it first, as PopCount would,
	// and skip the count word when no output equals it.
	parity := bdd.False
	if mgr.Run(func() {
		for _, v := range vars {
			parity = mgr.Xor(parity, v)
		}
	}) != nil || !slices.Contains(refs, parity) {
		return nil
	}
	// Build BDD count bits of sum over all support variables.
	var count []bdd.Ref
	if mgr.Run(func() { count = mgr.PopCount(vars) }) != nil {
		return nil
	}
	// Match outputs to count bits. The class may also contain internal
	// nodes of the counter (full-support carries), so a subset match with
	// at least two distinct count bits suffices; the module is built from
	// the matched outputs.
	type pair struct {
		bit int
		id  netlist.ID
	}
	var matched []pair
	used := make(map[int]bool)
	for i, r := range refs {
		for j, cb := range count {
			if r == cb && !used[j] {
				used[j] = true
				matched = append(matched, pair{j, c.Outputs[i]})
				break
			}
		}
	}
	if len(matched) < 2 || !used[0] {
		return nil // bit 0 (parity) anchors a genuine population counter
	}
	sort.Slice(matched, func(a, b int) bool { return matched[a].bit < matched[b].bit })
	ordered := make([]netlist.ID, len(matched))
	for i, p := range matched {
		ordered[i] = p.id
	}
	cone := nl.ConeOfAll(ordered)
	m := module.New(module.PopCount, len(ordered), cone.Nodes)
	m.Name = fmt.Sprintf("popcount[%d]", len(c.Support))
	m.SetPort("in", c.Support)
	m.SetPort("out", ordered)
	m.SetPort("count", ordered)
	return m
}
