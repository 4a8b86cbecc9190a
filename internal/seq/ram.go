package seq

// RAM / register-file identification (Section III-C): read-logic marking,
// BDD verification of read behavior, and write-logic identification with
// mutual-exclusion checks on the write enables.

import (
	"fmt"
	"slices"
	"sort"

	"netlistre/internal/bdd"
	"netlistre/internal/bitslice"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/truth"
)

// FindRAMs runs the full RAM analysis. muxes supplies mux bitslice matches
// for write-logic identification (pass the result of bitslice.Find; write
// logic is skipped when nil).
func FindRAMs(nl *netlist.Netlist, muxes *bitslice.Result) []*module.Module {
	order := nl.TopoOrder()
	marked := markReadLogic(nl, order)
	// One BDD manager serves every read-root and write-enable check of
	// the call, reset between checks.
	mgr := bdd.New(0)
	bits := readBits(mgr, nl, marked, readRoots(nl, marked, order), order)
	return ramModules(mgr, nl, marked, bits, muxes)
}

// readBit is one verified read-tree root.
type readBit struct {
	root    netlist.ID
	selects []netlist.ID // select signals, sorted
	cells   []netlist.ID // storage latches, sorted
	cone    []netlist.ID // the root's combinational fan-in cone
}

// readBits verifies the candidate read roots and returns those that verify
// and lie in no other verified root's cone, in the order of roots: interior
// mux-tree levels verify as sub-reads of the same tree.
//
// Roots are verified from the outputs down, in reverse topological order,
// and a root inside the cone of a root that verified is skipped without a
// BDD check. Cones are transitive, so whether it verified or not it would be
// dropped as interior, and its own cone adds nothing to the interior set.
// A root still to come is topologically earlier, so its cone cannot hold a
// root already kept.
func readBits(mgr *bdd.Manager, nl *netlist.Netlist, marked []bool, roots, order []netlist.ID) []readBit {
	rank := make([]int32, nl.Len())
	for i, id := range order {
		rank[id] = int32(i)
	}
	down := make([]int, len(roots))
	for i := range down {
		down[i] = i
	}
	sort.Slice(down, func(i, j int) bool { return rank[roots[down[i]]] > rank[roots[down[j]]] })
	interior := make([]bool, nl.Len())
	verified := make([]*readBit, len(roots))
	for _, i := range down {
		root := roots[i]
		if interior[root] {
			continue
		}
		sel, cells, ok := verifyReadBehavior(mgr, nl, marked, root)
		if !ok {
			continue
		}
		cone := nl.ConeOf(root).Nodes
		for _, n := range cone {
			if n != root {
				interior[n] = true
			}
		}
		verified[i] = &readBit{root, sel, cells, cone}
	}
	var bits []readBit
	for _, b := range verified {
		if b != nil {
			bits = append(bits, *b)
		}
	}
	return bits
}

// ramModules aggregates verified read bits into RAM modules and identifies
// their write logic.
func ramModules(mgr *bdd.Manager, nl *netlist.Netlist, marked []bool, bits []readBit, muxes *bitslice.Result) []*module.Module {
	// Aggregate read bits sharing the same select set into one array
	// (footnote 12 of the paper).
	bySel := make(map[string][]readBit)
	for _, b := range bits {
		k := netlist.Key(b.selects)
		bySel[k] = append(bySel[k], b)
	}
	var keys []string
	for k := range bySel {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Merge select groups reading the SAME storage cells: those are
	// multiple read ports of one array (the paper reports its 32x32
	// register file with two read ports and one write port as a single
	// RAM module).
	type port struct {
		selects []netlist.ID
		bits    []readBit
	}
	byCells := make(map[string][]port)
	var cellKeys []string
	for _, k := range keys {
		group := bySel[k]
		var cells []netlist.ID
		for _, b := range group {
			cells = append(cells, b.cells...)
		}
		ck := netlist.Key(slices.Compact(netlist.SortedIDs(cells)))
		if _, seenCK := byCells[ck]; !seenCK {
			cellKeys = append(cellKeys, ck)
		}
		byCells[ck] = append(byCells[ck], port{selects: group[0].selects, bits: group})
	}

	// Nested mux-tree levels verify as smaller sub-arrays of the same
	// storage; keep only cell sets not strictly contained in another.
	cellSets := make(map[string]map[netlist.ID]bool, len(cellKeys))
	for _, ck := range cellKeys {
		set := make(map[netlist.ID]bool)
		for _, p := range byCells[ck] {
			for _, b := range p.bits {
				for _, c := range b.cells {
					set[c] = true
				}
			}
		}
		cellSets[ck] = set
	}
	contained := func(a, b map[netlist.ID]bool) bool {
		if len(a) >= len(b) {
			return false
		}
		for c := range a {
			if !b[c] {
				return false
			}
		}
		return true
	}
	var keptKeys []string
	for _, ck := range cellKeys {
		sub := false
		for _, other := range cellKeys {
			if other != ck && contained(cellSets[ck], cellSets[other]) {
				sub = true
				break
			}
		}
		if !sub {
			keptKeys = append(keptKeys, ck)
		}
	}
	cellKeys = keptKeys

	var out []*module.Module
	for _, ck := range cellKeys {
		ports := byCells[ck]
		var cells, elements []netlist.ID
		width := 0
		for _, p := range ports {
			for _, b := range p.bits {
				cells = append(cells, b.cells...)
				// Read-logic elements: marked nodes in the root's cone,
				// plus the unmarked inverters/buffers the verification
				// built through (select inverters shared across the port's
				// bits stay unmarked because of their fanout).
				for _, n := range b.cone {
					_, unary := nl.Node(n).UnaryKind()
					if marked[n] || unary {
						elements = append(elements, n)
					}
				}
				elements = append(elements, b.root)
			}
			if len(p.bits) > width {
				width = len(p.bits)
			}
		}
		cells = slices.Compact(netlist.SortedIDs(cells))
		if len(cells) < 4 || len(cells) < 2*width {
			// Too small to be an array, or fewer than two words: a
			// "one-word RAM" is just a register bank misread through its
			// hold muxes.
			continue
		}
		elements = append(elements, cells...)

		m := module.New(module.RAM, width, elements)
		m.SetPort("cells", cells)
		var allReads []netlist.ID
		for pi, p := range ports {
			var readOuts []netlist.ID
			for _, b := range p.bits {
				readOuts = append(readOuts, b.root)
			}
			m.SetPort(fmt.Sprintf("read%d", pi), readOuts)
			m.SetPort(fmt.Sprintf("select%d", pi), p.selects)
			allReads = append(allReads, readOuts...)
		}
		m.SetPort("read", allReads)
		m.SetPort("select", ports[0].selects)
		m.SetAttr("read-ports", fmt.Sprint(len(ports)))

		if muxes != nil {
			if weis, writeElems, ok := identifyWriteLogic(mgr, nl, muxes, cells); ok {
				all := append(append([]netlist.ID(nil), m.Elements...), writeElems...)
				m.SetElements(all)
				m.SetPort("we", weis)
				m.SetAttr("write-logic", "verified")
			}
		}
		m.Name = fmt.Sprintf("ram[%dw x %db]", len(cells)/width, width)
		if len(ports) > 1 {
			m.Name = fmt.Sprintf("ram[%dw x %db, %dr]", len(cells)/width, width, len(ports))
		}
		out = append(out, m)
	}
	return out
}

// markReadLogic implements the marking pass of Section III-C.1: latches are
// marked, then any gate with at least one marked input and at most one
// fanout, to a fixed point. (The paper says "only one fanout"; gates with
// zero fanout drive primary outputs and play the same tree-interior role,
// so they are marked as well.) A gate's mark depends only on its fanins,
// so one pass in topological order reaches the fixed point. The result is
// indexed by node ID.
func markReadLogic(nl *netlist.Netlist, order []netlist.ID) []bool {
	marked := make([]bool, nl.Len())
	for _, l := range nl.Latches() {
		marked[l] = true
	}
	for _, id := range order {
		if marked[id] || !nl.Kind(id).IsGate() || len(nl.Fanout(id)) > 1 {
			continue
		}
		for _, f := range nl.Fanin(id) {
			if marked[f] {
				marked[id] = true
				break
			}
		}
	}
	return marked
}

// readRoots returns candidate read-tree roots using a support-purity
// analysis: a marked gate is "pure" when its combinational support consists
// of storage latches plus at most maxSelectVars other signals — the shape
// of a genuine read tree. Candidates are the MAXIMAL pure marked gates
// (their consumer is unmarked or impure: the point where the read value
// leaves the array and mixes into the datapath), plus unmarked gates
// directly consuming a pure marked gate (read tops whose fanout keeps them
// unmarked). The BDD verification discards false candidates cheaply.
func readRoots(nl *netlist.Netlist, marked []bool, order []netlist.ID) []netlist.ID {
	type supInfo struct {
		latches map[netlist.ID]bool
		others  map[netlist.ID]bool
		impure  bool
	}
	info := make(map[netlist.ID]*supInfo)

	// resolveThrough follows unmarked inverter/buffer chains (including
	// their 1-input LUT forms), mirroring verifyReadBehavior's
	// pass-through behaviour.
	var resolveThrough func(id netlist.ID) netlist.ID
	resolveThrough = func(id netlist.ID) netlist.ID {
		if _, unary := nl.Node(id).UnaryKind(); unary && !marked[id] {
			return resolveThrough(nl.Fanin(id)[0])
		}
		return id
	}

	for _, id := range order {
		if !marked[id] || !nl.Kind(id).IsGate() {
			continue
		}
		si := &supInfo{latches: map[netlist.ID]bool{}, others: map[netlist.ID]bool{}}
		for _, f0 := range nl.Fanin(id) {
			f := resolveThrough(f0)
			switch {
			case nl.Kind(f) == netlist.Latch:
				si.latches[f] = true
			case marked[f] && nl.Kind(f).IsGate():
				fi := info[f]
				if fi == nil || fi.impure {
					si.impure = true
				} else {
					for l := range fi.latches {
						si.latches[l] = true
					}
					for o := range fi.others {
						si.others[o] = true
					}
				}
			default:
				// Primary input or unmarked gate: a select-side signal.
				si.others[f] = true
			}
			if len(si.others) > maxSelectVars {
				si.impure = true
			}
			if si.impure {
				si.latches, si.others = nil, nil
				break
			}
		}
		info[id] = si
	}

	pure := func(id netlist.ID) bool {
		si := info[id]
		return si != nil && !si.impure && len(si.latches) >= 2
	}

	var roots []netlist.ID
	seen := make(map[netlist.ID]bool)
	add := func(id netlist.ID) {
		if !seen[id] {
			seen[id] = true
			roots = append(roots, id)
		}
	}
	for id := netlist.ID(0); int(id) < nl.Len(); id++ {
		if !nl.Kind(id).IsGate() {
			continue
		}
		if marked[id] {
			if !pure(id) {
				continue
			}
			// Frontier pure gates: a consumer that is unmarked, impure, or
			// that WIDENS the select set marks a potential array boundary
			// (nested mux-tree levels each add a select; larger trees
			// subsume smaller ones during aggregation).
			isRoot := len(nl.Fanout(id)) == 0 // output-driving top
			for _, fo := range nl.Fanout(id) {
				if !marked[fo] || !nl.Kind(fo).IsGate() || !pure(fo) {
					isRoot = true
					break
				}
				for o := range info[fo].others {
					if !info[id].others[o] {
						isRoot = true
						break
					}
				}
				if isRoot {
					break
				}
			}
			if isRoot {
				add(id)
			}
			continue
		}
		// Unmarked tree top over a pure marked subtree.
		for _, f := range nl.Fanin(id) {
			if marked[f] && nl.Kind(f).IsGate() && pure(f) {
				add(id)
				break
			}
		}
	}
	return roots
}

// verifyReadBehavior builds a BDD for the root in terms of latches, inputs
// and unmarked nodes, and checks the two properties of Section III-C.2:
// every select assignment propagates exactly one latch (possibly negated)
// to the output, and every latch in the support is propagated for some
// select assignment. It resets mgr first.
func verifyReadBehavior(mgr *bdd.Manager, nl *netlist.Netlist, marked []bool, root netlist.ID) (selects, cells []netlist.ID, ok bool) {
	mgr.Reset()
	mgr.Limit = 1 << 20 // genuine read trees are small; cap runaway cones
	bld := bdd.NewBuilder(mgr, nl)
	// The root is a function of the latches, inputs and unmarked nodes
	// (Section III-C.2). Unmarked inverters and buffers (gate or 1-input
	// LUT form) are built through rather than cut: select inverters are
	// commonly shared across the bits of a read port (fanout > 1, hence
	// unmarked), and modeling them as free variables would let the check
	// see inconsistent select assignments.
	bld.Leaf = func(id netlist.ID) bool {
		_, passThrough := nl.Node(id).UnaryKind()
		return id != root && !passThrough && !marked[id]
	}
	var ref bdd.Ref
	if err := mgr.Run(func() { ref = bld.Build(root) }); err != nil {
		return nil, nil, false
	}
	sup := mgr.Support(ref)
	var selVars, cellVars []int
	for _, v := range sup {
		if nl.Kind(bld.SignalOf(v)) == netlist.Latch {
			cellVars = append(cellVars, v)
		} else {
			selVars = append(selVars, v)
		}
	}
	if len(cellVars) < 2 || len(selVars) == 0 || len(selVars) > maxSelectVars {
		return nil, nil, false
	}

	// Enumerate select assignments; each restriction must be exactly one
	// storage variable or its negation.
	seen := make(map[int]bool)
	for m := 0; m < 1<<uint(len(selVars)); m++ {
		f := ref
		for i, v := range selVars {
			f = mgr.Restrict(f, v, m>>uint(i)&1 == 1)
		}
		v, _, isVar := mgr.Literal(f)
		if !isVar {
			return nil, nil, false
		}
		seen[v] = true
	}
	// Property 2: every storage latch is propagated.
	for _, v := range cellVars {
		if !seen[v] {
			return nil, nil, false
		}
	}
	for _, v := range selVars {
		selects = append(selects, bld.SignalOf(v))
	}
	for _, v := range cellVars {
		cells = append(cells, bld.SignalOf(v))
	}
	selects = netlist.SortedIDs(selects)
	cells = netlist.SortedIDs(cells)
	return selects, cells, true
}

// identifyWriteLogic implements Section III-C.3: for every cell, the D
// input must be a 2:1 mux whose one data leg is the cell itself; the mux
// select is the write enable. Write enables are grouped (one per word) and
// checked for satisfiability and pairwise mutual exclusion with BDDs, on
// mgr after a reset.
func identifyWriteLogic(mgr *bdd.Manager, nl *netlist.Netlist, muxes *bitslice.Result, cells []netlist.ID) (weis, elements []netlist.ID, ok bool) {
	type writeInfo struct {
		we       netlist.ID
		activeLo bool
		cone     []netlist.ID
	}
	infos := make(map[netlist.ID]writeInfo, len(cells))
	for _, cell := range cells {
		d := nl.Fanin(cell)[0]
		m, found := muxes.HasClass(d, truth.ClassMux2)
		if !found {
			return nil, nil, false
		}
		switch {
		case m.Args[0] == cell:
			// d0 = hold leg: select high writes (active-high WE).
			infos[cell] = writeInfo{we: m.Args[2], activeLo: false, cone: m.Cone}
		case m.Args[1] == cell:
			// d1 = hold leg: select low writes (active-low WE).
			infos[cell] = writeInfo{we: m.Args[2], activeLo: true, cone: m.Cone}
		default:
			return nil, nil, false
		}
	}
	// Group cells by write enable -> words.
	byWE := make(map[netlist.ID][]netlist.ID)
	for cell, info := range infos {
		byWE[info.we] = append(byWE[info.we], cell)
	}
	var wes []netlist.ID
	for we := range byWE {
		wes = append(wes, we)
	}
	wes = netlist.SortedIDs(wes)
	if len(wes) < 2 {
		return nil, nil, false
	}

	// BDD checks: each WE satisfiable, no two WEs simultaneously active.
	mgr.Reset()
	mgr.Limit = 0 // the default bound
	bld := bdd.NewBuilder(mgr, nl)
	refs := make([]bdd.Ref, len(wes))
	err := mgr.Run(func() {
		for i, we := range wes {
			r := bld.Build(we)
			// Normalize active-low enables.
			if infos[byWE[we][0]].activeLo {
				r = mgr.Not(r)
			}
			refs[i] = r
		}
	})
	if err != nil || !mgr.Exclusive(refs) {
		return nil, nil, false
	}

	for _, info := range infos {
		elements = append(elements, info.cone...)
	}
	// Include the WE cones (decoder + gating logic).
	weCone := nl.ConeOfAll(wes)
	elements = append(elements, weCone.Nodes...)
	return wes, slices.Compact(netlist.SortedIDs(elements)), true
}

// firstSeen returns ids without repeats, each where it first appears.
func firstSeen(ids []netlist.ID) []netlist.ID {
	seen := make(map[netlist.ID]bool, len(ids))
	var out []netlist.ID
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
