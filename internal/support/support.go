// Package support implements Algorithm 5 of the paper (Section II-E):
// detection of combinational modules whose outputs all depend on the same
// set of inputs — decoders, demultiplexers and population counters. Nodes
// are grouped into equivalence classes by the input set of their full
// combinational fan-in cones, computed in one topological pass that merges
// each gate's fanin supports and drops a gate once its support passes the
// class bound, and candidate classes are verified with BDD-based functional
// checks (Section II-E.2). The class bounds are constants: at most 10
// shared inputs, at least 3 outputs and at most 400 cone gates.
package support

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"netlistre/internal/bdd"
	"netlistre/internal/bitsim"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
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
	// disablePrefilter turns off the bit-parallel simulation prefilter
	// that refutes candidate classes before their BDDs are built. The
	// prefilter is sound — it skips a class only when every check
	// verifyClass could run is witnessed to fail — so only this package's
	// differential tests set it, for their oracle runs.
	disablePrefilter bool
}

// Class is one common-support equivalence class.
type Class struct {
	Support []netlist.ID // the shared cone-input set, sorted
	Outputs []netlist.ID // gates whose cones read exactly Support
}

// Classes groups every combinational gate by the input set of its full
// fan-in cone. It returns only classes of width at most maxSupport with at
// least two outputs, sorted by first output. Supports are computed in one
// pass over nl.TopoOrder(): a cone input's support is itself, a constant's
// is empty, and a gate's is the sorted merge of its fanins' supports, which
// is exactly its cone-input set. A gate turns wide once a fanin is wide or
// the merge passes maxSupport; wide gates keep no list and join no class.
func Classes(nl *netlist.Netlist) []Class {
	sup := make([][]netlist.ID, nl.Len())
	wide := make([]bool, nl.Len())
	var acc, tmp []netlist.ID
	for _, id := range nl.TopoOrder() {
		switch k := nl.Kind(id); {
		case k.IsConeInput():
			sup[id] = []netlist.ID{id}
			continue
		case !k.IsGate():
			continue // a constant's support is empty
		}
		acc = acc[:0]
		for _, f := range nl.Fanin(id) {
			var ok bool
			tmp, ok = mergeIDs(tmp[:0], acc, sup[f], maxSupport)
			acc, tmp = tmp, acc
			if wide[f] || !ok {
				wide[id] = true
				break
			}
		}
		if !wide[id] {
			sup[id] = slices.Clone(acc)
		}
	}
	// Scanning IDs in ascending order creates each class at its first
	// output, so out is already sorted by first output.
	byKey := make(map[string]int)
	var out []Class
	for id := netlist.ID(0); int(id) < nl.Len(); id++ {
		if len(sup[id]) == 0 || !nl.Kind(id).IsGate() {
			continue
		}
		key := idKey(sup[id])
		i, ok := byKey[key]
		if !ok {
			i = len(out)
			out = append(out, Class{Support: sup[id]})
			byKey[key] = i
		}
		out[i].Outputs = append(out[i].Outputs, id)
	}
	return slices.DeleteFunc(out, func(c Class) bool { return len(c.Outputs) < 2 })
}

// mergeIDs appends to dst the sorted union of the sorted lists a and b.
// It stops and reports false once the union would pass limit entries.
func mergeIDs(dst, a, b []netlist.ID, limit int) ([]netlist.ID, bool) {
	for len(a) > 0 || len(b) > 0 {
		if len(dst) == limit {
			return dst, false
		}
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			dst, a = append(dst, a[0]), a[1:]
		case len(a) == 0 || b[0] < a[0]:
			dst, b = append(dst, b[0]), b[1:]
		default: // a[0] == b[0]
			dst, a, b = append(dst, a[0]), a[1:], b[1:]
		}
	}
	return dst, true
}

func idKey(ids []netlist.ID) string {
	b := make([]byte, 0, len(ids)*4)
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// Analyze finds decoder, demultiplexer and population-counter modules.
// Classes are verified concurrently (each builds its own BDD manager);
// results are collected in class order so the output is deterministic.
func Analyze(nl *netlist.Netlist, opt Options) []*module.Module {
	cands := slices.DeleteFunc(Classes(nl), func(c Class) bool { return len(c.Outputs) < minOutputs })
	results := make([]*module.Module, len(cands))
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers > 1 {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					if opt.Interrupt != nil && opt.Interrupt() {
						continue // drain remaining indices without verifying
					}
					results[i] = verifyClass(nl, cands[i], opt)
				}
			}()
		}
		for i := range cands {
			next <- i
		}
		close(next)
		wg.Wait()
	} else {
		for i := range cands {
			if opt.Interrupt != nil && opt.Interrupt() {
				break
			}
			results[i] = verifyClass(nl, cands[i], opt)
		}
	}
	var out []*module.Module
	for _, m := range results {
		if m != nil {
			out = append(out, m)
		}
	}
	return out
}

// verifyClass runs the BDD checks on one candidate class.
func verifyClass(nl *netlist.Netlist, c Class, opt Options) *module.Module {
	cone := nl.ConeOfAll(c.Outputs)
	if len(cone.Nodes) > maxConeGates {
		return nil
	}
	if !opt.disablePrefilter && simRefuteClass(nl, c) {
		return nil // every possible check witnessed to fail; skip the BDDs
	}

	mgr := bdd.New(0)
	bld := bdd.NewBuilder(mgr, nl)
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
			if !mutuallyExclusive(mgr, fs) {
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

// simRefuteRounds bounds the random 64-pattern batches simRefuteClass
// tries before handing the class to the BDD checks.
const simRefuteRounds = 8

// simRefuteClass decides by bit-parallel simulation that a candidate class
// cannot verify, running random 64-lane batches over the class support.
// It reports true only when every outcome of verifyClass is witnessed to
// be impossible:
//
//   - every output took both values (so none is functionally constant and
//     the live output set the BDD pass would compute equals c.Outputs);
//   - no output can equal the support parity, killing the population-
//     counter match (whose count-bit-0 anchor is the parity function);
//   - every output group has, in both polarities, a lane where two group
//     members are simultaneously active, killing the one-hot checks (and
//     with them the decoder and demux outcomes).
//
// Each witness is a concrete input assignment, so a true result is sound:
// verifyClass would have returned nil. No witness means the class goes to
// the BDDs as before.
func simRefuteClass(nl *netlist.Netlist, c Class) bool {
	nOut := len(c.Outputs)
	groups := outputGroups(nl, c.Outputs)
	needParity := len(c.Support) >= 3
	seen0 := make([]bool, nOut)
	seen1 := make([]bool, nOut)
	parityRefuted := make([]bool, nOut)
	groupAlive := make([][2]bool, len(groups))
	for gi := range groupAlive {
		groupAlive[gi] = [2]bool{true, true}
	}
	outVal := make([]uint64, nOut)
	assign := make(map[netlist.ID]bitsim.Vector, len(c.Support))
	rng := rand.New(rand.NewSource(0xdec0de ^ int64(c.Outputs[0])<<16 ^ int64(len(c.Support))))
	for round := 0; round < simRefuteRounds; round++ {
		var parity uint64
		for _, s := range c.Support {
			v := rng.Uint64()
			assign[s] = bitsim.Known(v)
			parity ^= v
		}
		vals := bitsim.RunCone(nl, c.Outputs, assign)
		for i, o := range c.Outputs {
			v := vals[o]
			if v.Unk != 0 {
				return false // cone read something outside Support; let the BDDs decide
			}
			outVal[i] = v.Val
			if v.Val != 0 {
				seen1[i] = true
			}
			if v.Val != ^uint64(0) {
				seen0[i] = true
			}
			if v.Val != parity {
				parityRefuted[i] = true
			}
		}
		for gi, g := range groups {
			for pol := 0; pol < 2; pol++ {
				if !groupAlive[gi][pol] {
					continue
				}
				// seenTwo collects lanes where a second group member is
				// active: a one-hot violation witnessed in one word pass.
				var seenOne, seenTwo uint64
				for _, idx := range g {
					v := outVal[idx]
					if pol == 1 {
						v = ^v
					}
					seenTwo |= seenOne & v
					seenOne |= v
				}
				if seenTwo != 0 {
					groupAlive[gi][pol] = false
				}
			}
		}
		refuted := true
		for i := 0; i < nOut && refuted; i++ {
			refuted = seen0[i] && seen1[i] && (!needParity || parityRefuted[i])
		}
		for gi := range groups {
			if groupAlive[gi][0] || groupAlive[gi][1] {
				refuted = false
				break
			}
		}
		if refuted {
			return true
		}
	}
	return false
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

// mutuallyExclusive checks that no two functions are simultaneously true.
func mutuallyExclusive(mgr *bdd.Manager, fs []bdd.Ref) bool {
	for i := 0; i < len(fs); i++ {
		for j := i + 1; j < len(fs); j++ {
			if mgr.And(fs[i], fs[j]) != bdd.False {
				return false
			}
		}
	}
	return true
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
	// Build BDD count bits of sum over all support variables.
	var vars []bdd.Ref
	for _, s := range c.Support {
		v, ok := bld.HasVar(s)
		if !ok {
			return nil
		}
		vars = append(vars, mgr.Var(v))
	}
	nBits := 0
	for 1<<uint(nBits) <= len(vars) {
		nBits++
	}
	count := make([]bdd.Ref, nBits)
	for i := range count {
		count[i] = bdd.False
	}
	var err error
	err = mgr.Run(func() {
		for _, x := range vars {
			carry := x
			for i := 0; i < nBits && carry != bdd.False; i++ {
				newBit := mgr.Xor(count[i], carry)
				carry = mgr.And(count[i], carry)
				count[i] = newBit
			}
		}
	})
	if err != nil {
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
