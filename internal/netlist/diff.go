package netlist

// Structural netlist diffing. DiffNetlists aligns two revisions of a
// design — a trusted "golden" netlist and a "suspect" netlist (a revision
// returned by an untrusted party, re-extracted from silicon, or simply a
// later edit) — and reports the nodes that exist on only one side. The
// output is the paper's Section V-D workflow turned into a primitive: a
// hardware trojan spliced into a design is exactly the suspect-only node
// set of a golden/suspect diff.
//
// The hard part is resynchronizing across a splice. A trojan that taps a
// word and re-drives it (the oc8051 kill switch gates the accumulator's
// write port, the eVoter backdoor muxes the key input of the vote decoder)
// changes the fanin identity of every downstream gate, so naive
// fanin-signature matching stalls at the splice point and flags the whole
// downstream cone. The matcher therefore interleaves three passes until a
// fixpoint:
//
//   - anchor: primary inputs are matched by name, primary-output drivers by
//     port name, so the boundary of the design is pinned regardless of how
//     internal nets were renamed.
//   - forward: an unmatched node whose fanins are all matched gets a
//     signature (kind, canonical LUT mask, golden-image fanin list, sorted
//     for commutative kinds). Signatures with equal multiplicity on both
//     sides are paired; unbalanced ones are skipped, so a trojan gate can
//     not steal the counterpart of a golden gate it happens to resemble.
//   - backward: an unmatched node is described by where its output goes —
//     the matched subset of its fanout (consumer's golden image plus the
//     fanin slot it feeds, slot-insensitive for commutative consumers) and
//     the output ports it drives. Unique backward signatures are paired,
//     which walks matching backward through a spliced region: the port
//     anchors the register, the register pulls in its write mux, the mux
//     pulls in the gates behind it.
//
// Regions with no path to an anchor (a free-running counter whose bits are
// never observed) are handled by a Weisfeiler-Leman refinement pass run
// only when the other passes stall: matched pairs are frozen at a shared
// color, unmatched nodes refine over fanin/fanout colors, and classes that
// end up with exactly one node per side are paired. The refinement reuses
// the fingerprint's conventions (commutative fanin sorting, canonical LUT
// masks), so the pairing is invariant under node reordering and renaming.
//
// The matcher has no options: at most maxDiffPasses sweeps, simBatches ×
// 64 simulation runs of simCycles cycles, and maxRefineRounds WL rounds,
// with the simulation and WL passes always available on a stall.
//
// Everything is deterministic: ties are broken by node ID, and no pass
// consults internal net names except the final retype classification,
// which degrades gracefully when names are absent or scrambled.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

const (
	// maxDiffPasses caps the forward/backward sweep count. Each sweep
	// advances the matched frontier by at least one level, so 512
	// comfortably covers any realistic logic depth.
	maxDiffPasses = 512
	// simCycles is the length of each bit-parallel simulation run. Runs
	// restart from the all-zero latch state, so a sequential trigger
	// deeper than simCycles cannot fire during matching — short runs are
	// what keep a dormant trojan dormant and its host design functionally
	// identical to the golden revision.
	simCycles = 4
	// simBatches is the number of 64-run bit-parallel batches: 128
	// independent runs.
	simBatches = 2
)

// RetypedPair is a golden/suspect node pair that occupies the same
// position in the design but differs in function (gate kind or LUT mask).
type RetypedPair struct {
	Golden  ID
	Suspect ID
}

// Diff is the result of DiffNetlists. Added and Removed list gate, latch
// and LUT nodes only; primary inputs and output ports present on a single
// side are reported by name, and constants are treated as interchangeable
// background and never reported.
type Diff struct {
	// Added lists suspect-side nodes with no golden counterpart, sorted.
	Added []ID
	// Removed lists golden-side nodes with no suspect counterpart, sorted.
	Removed []ID
	// Retyped lists matched-position pairs whose function changed. Retyped
	// nodes appear here instead of Added/Removed.
	Retyped []RetypedPair
	// InputsAdded/InputsRemoved and OutputsAdded/OutputsRemoved list
	// boundary names present on only one side, sorted.
	InputsAdded    []string
	InputsRemoved  []string
	OutputsAdded   []string
	OutputsRemoved []string
	// Matched counts matched node pairs (inputs included).
	Matched int
	// Passes counts forward/backward sweeps run before the fixpoint.
	Passes int
}

// Identical reports whether the diff found no structural change.
func (d *Diff) Identical() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Retyped) == 0 &&
		len(d.InputsAdded) == 0 && len(d.InputsRemoved) == 0 &&
		len(d.OutputsAdded) == 0 && len(d.OutputsRemoved) == 0
}

// SuspectSet returns the suspect-side nodes implicated by the diff: every
// added node plus the suspect half of every retyped pair, sorted. For a
// trojaned revision of a clean golden design this is the injected gate
// set.
func (d *Diff) SuspectSet() []ID {
	out := append([]ID(nil), d.Added...)
	for _, p := range d.Retyped {
		out = append(out, p.Suspect)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sentinel fanin tokens shared by both sides of a signature. Constants are
// interchangeable (two Const0 nodes are the same value), so they resolve
// to a kind token rather than requiring an explicit node match.
const (
	tokConst0 = -2
	tokConst1 = -3
	tokNil    = -4
)

type differ struct {
	g, s *Netlist

	g2s, s2g []ID // Nil = unmatched

	gPorts, sPorts map[ID][]string // output port names by driver

	gLuts, sLuts map[ID]lutCanon

	gSim, sSim []string // lazily computed simulation signatures

	// roles maps unmatched suspect nodes to the golden node whose role
	// they play in matched consumers' fanins. Non-nil only while a
	// rolePass is running; faninToken consults it as a fallback.
	roles map[ID]ID

	// dupCanon maps each golden node matched inside a multi-member
	// forward-signature class to the class's canonical representative.
	// Members of such a class are functionally identical duplicates
	// (same kind, same canonical fanins), so the bijection chosen inside
	// the class is arbitrary — and consumer signatures must therefore
	// not depend on which duplicate a consumer happens to read, or the
	// arbitrary choice would poison every downstream signature whenever
	// the two sides' duplicates pair "crosswise" (any ID permutation of
	// one side can cause this). Every signature that names a matched
	// golden node goes through canonOf to stay choice-invariant.
	dupCanon map[ID]ID
}

// canonOf resolves a golden node to its duplicate-class representative
// (itself when it was matched uniquely).
func (d *differ) canonOf(g ID) ID {
	if c, ok := d.dupCanon[g]; ok {
		return c
	}
	return g
}

// DiffNetlists structurally aligns golden and suspect and returns the
// difference. Both netlists should be Validated; the diff itself never
// mutates either side.
func DiffNetlists(golden, suspect *Netlist) *Diff {
	d := &differ{
		g:        golden,
		s:        suspect,
		g2s:      make([]ID, golden.Len()),
		s2g:      make([]ID, suspect.Len()),
		gLuts:    map[ID]lutCanon{},
		sLuts:    map[ID]lutCanon{},
		dupCanon: map[ID]ID{},
	}
	for i := range d.g2s {
		d.g2s[i] = Nil
	}
	for i := range d.s2g {
		d.s2g[i] = Nil
	}
	d.gPorts = portsByDriver(golden)
	d.sPorts = portsByDriver(suspect)

	diff := &Diff{}
	d.anchor(diff)

	// Cheap exact passes run to quiescence; each stall escalates through
	// the progressively more global (and more expensive) resynchronizers,
	// any of which hands control back to the exact passes on progress.
	for pass := 0; pass < maxDiffPasses; pass++ {
		diff.Passes++
		progress := d.forwardPass()
		progress = d.backwardPass() || progress
		if !progress {
			if d.simPass() {
				continue
			}
			if d.wlPass() {
				continue
			}
			if d.rolePass() {
				continue
			}
			break
		}
	}

	d.collect(diff)
	return diff
}

func portsByDriver(nl *Netlist) map[ID][]string {
	m := map[ID][]string{}
	for _, p := range nl.Outputs() {
		if p.Driver != Nil {
			m[p.Driver] = append(m[p.Driver], p.Name)
		}
	}
	for _, names := range m {
		sort.Strings(names)
	}
	return m
}

func (d *differ) match(g, s ID) {
	d.g2s[g] = s
	d.s2g[s] = g
}

func (d *differ) lut(nl *Netlist, cache map[ID]lutCanon, id ID) lutCanon {
	if lc, ok := cache[id]; ok {
		return lc
	}
	lc := canonLut(nl.Node(id))
	cache[id] = lc
	return lc
}

// matchable reports whether a node participates in structural matching.
// Inputs are handled by the anchor pass and constants by sentinel tokens.
func matchable(k Kind) bool {
	switch k {
	case Input, Const0, Const1:
		return false
	}
	return true
}

// anchor matches primary inputs by name and output-port drivers by port
// name, and records boundary names present on only one side.
func (d *differ) anchor(diff *Diff) {
	gin := map[string]ID{}
	for _, id := range d.g.Inputs() {
		gin[d.g.NameOf(id)] = id
	}
	sin := map[string]ID{}
	for _, id := range d.s.Inputs() {
		sin[d.s.NameOf(id)] = id
	}
	for name, g := range gin {
		if s, ok := sin[name]; ok {
			d.match(g, s)
		} else {
			diff.InputsRemoved = append(diff.InputsRemoved, name)
		}
	}
	for name := range sin {
		if _, ok := gin[name]; !ok {
			diff.InputsAdded = append(diff.InputsAdded, name)
		}
	}
	sort.Strings(diff.InputsAdded)
	sort.Strings(diff.InputsRemoved)

	gout := map[string]ID{}
	for _, p := range d.g.Outputs() {
		gout[p.Name] = p.Driver
	}
	sout := map[string]ID{}
	for _, p := range d.s.Outputs() {
		sout[p.Name] = p.Driver
	}
	for name, g := range gout {
		s, ok := sout[name]
		if !ok {
			diff.OutputsRemoved = append(diff.OutputsRemoved, name)
			continue
		}
		if g == Nil || s == Nil || d.g2s[g] != Nil || d.s2g[s] != Nil {
			continue
		}
		if !matchable(d.g.Kind(g)) || !d.sameShape(g, s) {
			continue
		}
		d.match(g, s)
	}
	for name := range sout {
		if _, ok := gout[name]; !ok {
			diff.OutputsAdded = append(diff.OutputsAdded, name)
		}
	}
	sort.Strings(diff.OutputsAdded)
	sort.Strings(diff.OutputsRemoved)
}

// sameShape reports whether a golden and a suspect node agree in kind (and
// canonical mask, for LUTs) — the precondition for any pairing.
func (d *differ) sameShape(g, s ID) bool {
	gk, sk := d.g.Kind(g), d.s.Kind(s)
	if gk != sk {
		return false
	}
	if gk == Lut {
		return d.lut(d.g, d.gLuts, g).mask == d.lut(d.s, d.sLuts, s).mask
	}
	return true
}

// faninToken resolves one fanin reference to a token in the shared (golden
// ID) namespace, or fails if the fanin is an unmatched node.
func (d *differ) faninToken(suspectSide bool, f ID) (int64, bool) {
	if f == Nil {
		return tokNil, true
	}
	var nl *Netlist
	if suspectSide {
		nl = d.s
	} else {
		nl = d.g
	}
	switch nl.Kind(f) {
	case Const0:
		return tokConst0, true
	case Const1:
		return tokConst1, true
	}
	if suspectSide {
		if g := d.s2g[f]; g != Nil {
			return int64(d.canonOf(g)), true
		}
		if g, ok := d.roles[f]; ok {
			return int64(d.canonOf(g)), true
		}
		return 0, false
	}
	if d.g2s[f] != Nil {
		return int64(d.canonOf(f)), true
	}
	return 0, false
}

// forwardSig is the fanin-side signature of one unmatched node: kind,
// canonical mask, and the golden-image tokens of every fanin, in canonical
// argument order. ok is false while any fanin is unmatched.
func (d *differ) forwardSig(suspectSide bool, id ID) (string, bool) {
	nl, cache := d.g, d.gLuts
	if suspectSide {
		nl, cache = d.s, d.sLuts
	}
	node := nl.Node(id)
	fanin := node.Fanin
	var mask uint64
	if node.Kind == Lut {
		lc := d.lut(nl, cache, id)
		fanin, mask = lc.fanin, lc.mask
	}
	toks := make([]int64, 0, len(fanin))
	for _, f := range fanin {
		t, ok := d.faninToken(suspectSide, f)
		if !ok {
			return "", false
		}
		toks = append(toks, t)
	}
	if commutative(node.Kind) {
		sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%x", node.Kind, mask)
	for _, t := range toks {
		fmt.Fprintf(&b, "|%d", t)
	}
	return b.String(), true
}

// forwardPass matches unmatched nodes whose full fanin is matched,
// pairing signature classes with equal multiplicity on both sides. Equal
// signatures mean functionally identical nodes, so pairing inside a
// balanced class by ascending ID is sound.
func (d *differ) forwardPass() bool {
	gsig := map[string][]ID{}
	for i := 0; i < d.g.Len(); i++ {
		id := ID(i)
		if d.g2s[id] != Nil || !matchable(d.g.Kind(id)) {
			continue
		}
		if sig, ok := d.forwardSig(false, id); ok {
			gsig[sig] = append(gsig[sig], id)
		}
	}
	ssig := map[string][]ID{}
	for i := 0; i < d.s.Len(); i++ {
		id := ID(i)
		if d.s2g[id] != Nil || !matchable(d.s.Kind(id)) {
			continue
		}
		if sig, ok := d.forwardSig(true, id); ok {
			ssig[sig] = append(ssig[sig], id)
		}
	}
	progress := false
	for sig, gl := range gsig {
		sl := ssig[sig]
		if len(gl) != len(sl) {
			continue
		}
		for i := range gl {
			d.match(gl[i], sl[i])
			progress = true
			if len(gl) > 1 {
				// The members are functionally identical duplicates and
				// the intra-class bijection is arbitrary; record the
				// class representative so downstream signatures stay
				// invariant to the choice (gl is in ascending ID order,
				// so the representative is deterministic).
				d.dupCanon[gl[i]] = gl[0]
			}
		}
	}
	return progress
}

// inferRoles derives, for unmatched suspect nodes, the golden node whose
// functional role they play, from the fanins of already-matched pairs. A
// modification that reroutes a signal (a trojan muxing a key before its
// decoder, say) leaves the downstream consumers matched while the rerouted
// signal itself cannot match — but every matched consumer pair witnesses
// the correspondence: where the golden consumer reads the original signal,
// the suspect consumer reads the replacement. Positional kinds vote
// slot-by-slot; commutative kinds vote only when removing the images of the
// suspect's matched fanins from the golden fanin multiset leaves exactly
// one residual on each side. A suspect node gets a role only if all its
// votes agree on a single golden node.
func (d *differ) inferRoles() map[ID]ID {
	votes := map[ID]map[ID]int{}
	addVote := func(s, g ID) {
		if votes[s] == nil {
			votes[s] = map[ID]int{}
		}
		votes[s][g]++
	}
	for gi := 0; gi < d.g.Len(); gi++ {
		gID := ID(gi)
		sID := d.g2s[gID]
		if sID == Nil {
			continue
		}
		gn, sn := d.g.Node(gID), d.s.Node(sID)
		gf, sf := gn.Fanin, sn.Fanin
		if gn.Kind == Lut {
			gf = d.lut(d.g, d.gLuts, gID).fanin
		}
		if sn.Kind == Lut {
			sf = d.lut(d.s, d.sLuts, sID).fanin
		}
		if len(gf) != len(sf) {
			continue
		}
		if commutative(gn.Kind) {
			// The residual multiset is computed over canonical duplicate
			// representatives, so an intra-class pairing choice cannot
			// make a true image look like a residual.
			residual := map[ID]int{}
			for _, f := range gf {
				if d.g2s[f] != Nil {
					residual[d.canonOf(f)]++
				} else {
					residual[f]++
				}
			}
			var loose []ID
			ok := true
			for _, f := range sf {
				img := d.s2g[f]
				if img == Nil {
					loose = append(loose, f)
					continue
				}
				img = d.canonOf(img)
				if residual[img] == 0 {
					ok = false
					break
				}
				residual[img]--
			}
			if !ok || len(loose) != 1 {
				continue
			}
			var rest []ID
			for f, c := range residual {
				for ; c > 0; c-- {
					rest = append(rest, f)
				}
			}
			if len(rest) == 1 {
				addVote(loose[0], rest[0])
			}
		} else {
			for k := range sf {
				if d.s2g[sf[k]] == Nil {
					addVote(sf[k], gf[k])
				}
			}
		}
	}
	roles := map[ID]ID{}
	for s, cand := range votes {
		if len(cand) == 1 {
			for g := range cand {
				roles[s] = g
			}
		}
	}
	return roles
}

// rolePass is the last-resort resynchronizer for nodes that read a rerouted
// signal and have nothing downstream to anchor them (a dead decoder minterm
// of the replacement signal, shadowed in trace by an inserted comparator of
// the original). It re-runs forward signatures with suspect fanin tokens
// extended by inferred roles, and pairs only 1-1 classes: impostor gates
// read inserted nodes that earn no role, so their signatures stay
// incomputable rather than colliding.
func (d *differ) rolePass() bool {
	roles := d.inferRoles()
	if len(roles) == 0 {
		return false
	}
	saved := d.roles
	d.roles = roles
	defer func() { d.roles = saved }()

	gsig := map[string][]ID{}
	for i := 0; i < d.g.Len(); i++ {
		id := ID(i)
		if d.g2s[id] != Nil || !matchable(d.g.Kind(id)) {
			continue
		}
		if sig, ok := d.forwardSig(false, id); ok {
			gsig[sig] = append(gsig[sig], id)
		}
	}
	ssig := map[string][]ID{}
	for i := 0; i < d.s.Len(); i++ {
		id := ID(i)
		if d.s2g[id] != Nil || !matchable(d.s.Kind(id)) {
			continue
		}
		if sig, ok := d.forwardSig(true, id); ok {
			ssig[sig] = append(ssig[sig], id)
		}
	}
	progress := false
	for sig, gl := range gsig {
		sl := ssig[sig]
		if len(gl) == 1 && len(sl) == 1 {
			d.match(gl[0], sl[0])
			progress = true
		}
	}
	return progress
}

// backwardSig describes an unmatched node by its matched fanout: for every
// matched consumer, the consumer's golden image and the fanin slot fed
// (slot-insensitive for commutative consumers, canonical slots for LUTs),
// plus the output ports the node drives. ok is false when no matched
// consumer or port observes the node yet.
func (d *differ) backwardSig(suspectSide bool, id ID) (string, bool) {
	// Both sides express consumers in golden-ID space over MATCHED
	// consumers only: an unmatched golden consumer must be skipped just
	// like an unmatched suspect one, or any node whose fanout is not yet
	// fully matched could never equal its counterpart's signature.
	nl, cache, ports := d.g, d.gLuts, d.gPorts
	image := func(c ID) ID {
		if d.g2s[c] == Nil {
			return Nil
		}
		return c
	}
	if suspectSide {
		nl, cache, ports = d.s, d.sLuts, d.sPorts
		image = func(c ID) ID { return d.s2g[c] }
	}
	var elems []string
	for _, c := range nl.Fanout(id) {
		img := image(c)
		if img == Nil {
			continue
		}
		cn := nl.Node(c)
		fanin := cn.Fanin
		slotless := commutative(cn.Kind)
		if cn.Kind == Lut {
			fanin = d.lut(nl, cache, c).fanin
		}
		for slot, f := range fanin {
			if f != id {
				continue
			}
			if slotless {
				elems = append(elems, fmt.Sprintf("%d.*", img))
			} else {
				elems = append(elems, fmt.Sprintf("%d.%d", img, slot))
			}
		}
	}
	for _, p := range ports[id] {
		elems = append(elems, "p."+p)
	}
	if len(elems) == 0 {
		return "", false
	}
	sort.Strings(elems)
	node := nl.Node(id)
	var mask uint64
	if node.Kind == Lut {
		mask = d.lut(nl, cache, id).mask
	}
	return fmt.Sprintf("%d|%x|%s|%d", node.Kind, mask,
		strings.Join(elems, ","), len(node.Fanin)), true
}

// backwardPass matches nodes whose backward signature is unique on both
// sides. Unlike forward signatures, an equal backward signature does not
// imply interchangeability (two gates can feed the same commutative
// consumer from different sources), so only 1-1 classes are paired.
func (d *differ) backwardPass() bool {
	gsig := map[string][]ID{}
	for i := 0; i < d.g.Len(); i++ {
		id := ID(i)
		if d.g2s[id] != Nil || !matchable(d.g.Kind(id)) {
			continue
		}
		if sig, ok := d.backwardSig(false, id); ok {
			gsig[sig] = append(gsig[sig], id)
		}
	}
	ssig := map[string][]ID{}
	for i := 0; i < d.s.Len(); i++ {
		id := ID(i)
		if d.s2g[id] != Nil || !matchable(d.s.Kind(id)) {
			continue
		}
		if sig, ok := d.backwardSig(true, id); ok {
			ssig[sig] = append(ssig[sig], id)
		}
	}
	progress := false
	for sig, gl := range gsig {
		sl := ssig[sig]
		if len(gl) == 1 && len(sl) == 1 {
			d.match(gl[0], sl[0])
			progress = true
		}
	}
	return progress
}

// collect finalizes the diff: classify retyped pairs, then report the
// remaining unmatched gates, latches and LUTs.
func (d *differ) collect(diff *Diff) {
	var removed, added []ID
	for i := 0; i < d.g.Len(); i++ {
		id := ID(i)
		if d.g2s[id] == Nil && matchable(d.g.Kind(id)) {
			removed = append(removed, id)
		}
	}
	for i := 0; i < d.s.Len(); i++ {
		id := ID(i)
		if d.s2g[id] == Nil && matchable(d.s.Kind(id)) {
			added = append(added, id)
		}
	}
	retyped := d.retype(removed, added)
	inRetype := func(id ID, suspect bool) bool {
		for _, p := range retyped {
			if suspect && p.Suspect == id || !suspect && p.Golden == id {
				return true
			}
		}
		return false
	}
	for _, id := range removed {
		if !inRetype(id, false) {
			diff.Removed = append(diff.Removed, id)
		}
	}
	for _, id := range added {
		if !inRetype(id, true) {
			diff.Added = append(diff.Added, id)
		}
	}
	diff.Retyped = retyped
	for _, s := range d.g2s {
		if s != Nil {
			diff.Matched++
		}
	}
}

// retype pairs removed/added nodes that sit in the same position but
// compute a different function: identical resolved fanin token multiset
// (1-1 unique on both sides) with a differing kind or mask, or — as a
// name-assisted fallback — a unique shared nonempty node name.
func (d *differ) retype(removed, added []ID) []RetypedPair {
	type slot struct {
		ids   []ID
		shape []string
	}
	gpos := map[string]*slot{}
	for _, id := range removed {
		key, ok := d.positionKey(false, id)
		if !ok {
			continue
		}
		sl := gpos[key]
		if sl == nil {
			sl = &slot{}
			gpos[key] = sl
		}
		sl.ids = append(sl.ids, id)
	}
	spos := map[string][]ID{}
	for _, id := range added {
		key, ok := d.positionKey(true, id)
		if !ok {
			continue
		}
		spos[key] = append(spos[key], id)
	}
	var out []RetypedPair
	used := map[ID]bool{}
	for key, sl := range gpos {
		ss := spos[key]
		if len(sl.ids) != 1 || len(ss) != 1 {
			continue
		}
		g, s := sl.ids[0], ss[0]
		if !retypeCompatible(d.g.Node(g), d.s.Node(s)) {
			continue
		}
		if d.sameShape(g, s) {
			// Same function and same position yet unmatched means the
			// passes could not disambiguate it from a sibling; do not
			// guess here.
			continue
		}
		out = append(out, RetypedPair{Golden: g, Suspect: s})
		used[g] = true
	}

	// Name fallback: unique shared names classify renames of function.
	gname := map[string][]ID{}
	for _, id := range removed {
		if used[id] {
			continue
		}
		if n := d.g.NameOf(id); n != "" {
			gname[n] = append(gname[n], id)
		}
	}
	sname := map[string][]ID{}
	for _, id := range added {
		if n := d.s.NameOf(id); n != "" {
			sname[n] = append(sname[n], id)
		}
	}
	for n, gl := range gname {
		sl := sname[n]
		if len(gl) == 1 && len(sl) == 1 && !d.sameShape(gl[0], sl[0]) &&
			retypeCompatible(d.g.Node(gl[0]), d.s.Node(sl[0])) {
			out = append(out, RetypedPair{Golden: gl[0], Suspect: sl[0]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Golden < out[j].Golden })
	return out
}

// retypeCompatible gates the retype classifier: a retype is a function
// change in place, so the pair must agree in arity and must not cross the
// state/combinational boundary (a latch never "retypes" into a gate).
func retypeCompatible(g, s *Node) bool {
	if len(g.Fanin) != len(s.Fanin) {
		return false
	}
	return (g.Kind == Latch) == (s.Kind == Latch)
}

// positionKey is a kind-insensitive forward signature: the sorted resolved
// fanin tokens plus the driven ports. Two nodes with the same position key
// read the same values and drive the same ports.
func (d *differ) positionKey(suspectSide bool, id ID) (string, bool) {
	nl, ports := d.g, d.gPorts
	if suspectSide {
		nl, ports = d.s, d.sPorts
	}
	toks := make([]int64, 0, len(nl.Fanin(id)))
	for _, f := range nl.Fanin(id) {
		t, ok := d.faninToken(suspectSide, f)
		if !ok {
			return "", false
		}
		toks = append(toks, t)
	}
	sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
	var b strings.Builder
	for _, t := range toks {
		fmt.Fprintf(&b, "%d,", t)
	}
	for _, p := range ports[id] {
		b.WriteString("p." + p + ",")
	}
	return b.String(), true
}

// wlPass aligns anchor-free regions: a joint Weisfeiler-Leman refinement
// over both netlists in one color space, with matched pairs frozen at a
// shared color derived from the golden ID. After refinement, color classes
// holding exactly one unmatched node per side are paired. Returns whether
// any pair was made.
func (d *differ) wlPass() bool {
	// The refinement is seeded with the simulation traces of simPass,
	// which always runs first: dormant modifications leave every true
	// pair with identical traces, so the richer seed only splits classes,
	// never separates a true pair — and it lets structure break ties that
	// traces alone cannot (an inserted comparator mimicking a decoder
	// minterm's trace diverges from it within two rounds through its
	// fanin and fanout).
	gcol := d.wlColors(false)
	scol := d.wlColors(true)

	gclass := map[fpLabel][]ID{}
	for i := 0; i < d.g.Len(); i++ {
		id := ID(i)
		if d.g2s[id] == Nil && matchable(d.g.Kind(id)) {
			gclass[gcol[id]] = append(gclass[gcol[id]], id)
		}
	}
	sclass := map[fpLabel][]ID{}
	for i := 0; i < d.s.Len(); i++ {
		id := ID(i)
		if d.s2g[id] == Nil && matchable(d.s.Kind(id)) {
			sclass[scol[id]] = append(sclass[scol[id]], id)
		}
	}
	progress := false
	for col, gl := range gclass {
		sl := sclass[col]
		if len(gl) == 1 && len(sl) == 1 && d.sameShape(gl[0], sl[0]) {
			d.match(gl[0], sl[0])
			progress = true
		}
	}
	return progress
}

// simPass is the functional resynchronizer, and the pass that carries the
// paper's thesis into the diff: match gates by what they compute, not by
// where they sit. Both netlists are simulated bit-parallel (64 independent
// runs per batch) from the all-zero latch state with identical per-input
// random stimulus streams, keyed by input name so the two sides see the
// same values without needing any prior node matching. A node's signature
// is its value trace; as long as the suspect's modification is dormant
// under the stimuli — guaranteed for sequential triggers deeper than
// simCycles, since every run restarts from reset — every unmodified node
// computes the identical trace on both sides, including the entire cone
// downstream of a splice that structural matching cannot cross.
//
// Only classes holding exactly one unmatched node per side (for a given
// kind and mask) are paired: functionally duplicated nodes are left to the
// forward pass, whose exact structural signatures pair them soundly, and a
// trojan gate that happens to mimic a golden gate's trace (a comparator
// equal to a decoder minterm, say) inflates its class above 1-1 on the
// suspect side and is skipped rather than mismatched.
func (d *differ) simPass() bool {
	if d.gSim == nil {
		d.gSim = simSignatures(d.g)
		d.sSim = simSignatures(d.s)
	}
	gclass := map[string][]ID{}
	for i := 0; i < d.g.Len(); i++ {
		id := ID(i)
		if d.g2s[id] == Nil && matchable(d.g.Kind(id)) {
			gclass[d.simKey(false, id)] = append(gclass[d.simKey(false, id)], id)
		}
	}
	sclass := map[string][]ID{}
	for i := 0; i < d.s.Len(); i++ {
		id := ID(i)
		if d.s2g[id] == Nil && matchable(d.s.Kind(id)) {
			sclass[d.simKey(true, id)] = append(sclass[d.simKey(true, id)], id)
		}
	}
	progress := false
	for key, gl := range gclass {
		sl := sclass[key]
		if len(gl) == 1 && len(sl) == 1 {
			d.match(gl[0], sl[0])
			progress = true
		}
	}
	return progress
}

// simKey combines a node's shape (kind, canonical LUT mask, arity) with
// its simulation trace, so a Buf that copies a signal can never pair with
// the gate computing it. The key deliberately does NOT mix in matched-fanin
// structure: at a splice frontier the suspect's true image reads the
// inserted signal where the golden node reads a matched one, so any
// structural refinement splits exactly the true pairs the pass exists to
// recover, handing their 1-1 classes to inserted impostor gates that read
// the original signals. Structure is left to the forward/backward/WL
// passes, which use it soundly.
func (d *differ) simKey(suspectSide bool, id ID) string {
	nl, cache, sims := d.g, d.gLuts, d.gSim
	if suspectSide {
		nl, cache, sims = d.s, d.sLuts, d.sSim
	}
	node := nl.Node(id)
	var mask uint64
	if node.Kind == Lut {
		mask = d.lut(nl, cache, id).mask
	}
	return fmt.Sprintf("%d|%x|%d|%x", node.Kind, mask, len(node.Fanin), sims[id])
}

// simSignatures simulates nl and returns one trace string per node. The
// stimulus for each primary input is a deterministic PRNG stream seeded by
// the input's name, so two netlists sharing input names receive identical
// stimuli without any coordination.
func simSignatures(nl *Netlist) []string {
	n := nl.Len()
	sim := nl.newWordSim()
	sigs := make([][]byte, n)
	inputs := nl.Inputs()
	streams := make([]*simRand, len(inputs))
	for i, id := range inputs {
		streams[i] = newSimRand(nl.NameOf(id))
	}

	var scratch [8]byte
	record := func(vals []uint64) {
		for i, v := range vals {
			binary.LittleEndian.PutUint64(scratch[:], v)
			sigs[i] = append(sigs[i], scratch[:]...)
		}
	}

	for batch := 0; batch < simBatches; batch++ {
		clear(sim.vals)
		for cycle := 0; cycle < simCycles; cycle++ {
			for i, id := range inputs {
				sim.vals[id] = streams[i].next()
			}
			sim.step(record)
		}
	}

	out := make([]string, n)
	for i, s := range sigs {
		sum := sha256.Sum256(s)
		out[i] = string(sum[:])
	}
	return out
}

// simRand is a tiny deterministic PRNG (splitmix64) seeded from a string,
// used for per-input stimulus streams. Using our own generator keeps the
// diff's pairing decisions stable across Go releases.
type simRand struct{ state uint64 }

func newSimRand(name string) *simRand {
	sum := sha256.Sum256([]byte("netlistre-diff-sim|" + name))
	return &simRand{state: binary.LittleEndian.Uint64(sum[:8])}
}

func (r *simRand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// wlColors runs the refinement for one side. Matched nodes are frozen at a
// color keyed by their golden ID, which is identical on both sides, so two
// unmatched regions with isomorphic structure and matching boundary
// converge to equal colors. Node names are deliberately excluded: the
// pairing must survive renames.
func (d *differ) wlColors(suspectSide bool) []fpLabel {
	nl, cache, sims := d.g, d.gLuts, d.gSim
	imageOf := func(id ID) ID { return d.canonOf(id) }
	matchedTo := d.g2s
	if suspectSide {
		nl, cache, sims = d.s, d.sLuts, d.sSim
		imageOf = func(id ID) ID { return d.canonOf(d.s2g[id]) }
		matchedTo = d.s2g
	}
	n := nl.Len()
	labels := make([]fpLabel, n)
	next := make([]fpLabel, n)
	fixed := make([]bool, n)

	h := sha256.New()
	var scratch [8]byte
	for i := 0; i < n; i++ {
		id := ID(i)
		node := nl.Node(id)
		h.Reset()
		switch {
		case matchedTo[id] != Nil:
			fixed[i] = true
			h.Write([]byte{0x10})
			binary.LittleEndian.PutUint64(scratch[:], uint64(imageOf(id)))
			h.Write(scratch[:])
		case node.Kind == Const0 || node.Kind == Const1:
			// Constants are interchangeable background: freeze them at a
			// kind-keyed color so a shared constant feeding both sides'
			// common logic and one side's new logic cannot leak the new
			// logic's color into the common region through its fanout.
			fixed[i] = true
			h.Write([]byte{0x14, byte(node.Kind)})
		default:
			h.Write([]byte{0x11, byte(node.Kind)})
			if node.Kind == Lut {
				binary.LittleEndian.PutUint64(scratch[:], d.lut(nl, cache, id).mask)
				h.Write(scratch[:])
			}
			if sims != nil {
				h.Write([]byte{0x15})
				h.Write([]byte(sims[id]))
			}
		}
		h.Sum(labels[i][:0])
	}

	// The round count must be identical on both sides — a label hash
	// encodes its round depth, so stopping early on one side would make
	// every cross-side comparison miss. Always run all maxRefineRounds.
	lutFanin := func(id ID) []ID { return d.lut(nl, cache, id).fanin }
	for round := 0; round < maxRefineRounds; round++ {
		refineRound(nl, 0x12, lutFanin, fixed, labels, next)
		labels, next = next, labels
	}
	return labels
}
