package rtl

// The lowering planner. For each resolved module it proves, at emission
// time, that the module's logic computes a known reference template
// exactly; only proven modules are lowered, everything else is passed
// through as residual logic. Every proof checks function, never gate
// shape, so LUT-mapped and gate-level netlists lower alike. Combinational
// templates are proven by exhaustive bit-parallel simulation over the
// template's port bits with every other signal X-poisoned, which checks
// the function and the independence from non-port signals at once.
// Sequential templates are proven by BDD equality of every latch's
// next-state function, cut at the module's shared controls, with the
// template's next state.

import (
	"fmt"
	"math/bits"
	"slices"

	"netlistre/internal/bdd"
	"netlistre/internal/bitsim"
	"netlistre/internal/core"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/truth"
)

// maxExactVars bounds the exhaustive functional checks (2^14 rows, swept
// 64 rows per bit-parallel pass).
const maxExactVars = 14

// maxConeNodes bounds the cone walked per functional check so a
// misaligned candidate cannot drag a whole design through the sweep.
const maxConeNodes = 2000

// portConn is one instance connection: template port name -> original
// nodes, LSB first.
type portConn struct {
	name string
	bits []netlist.ID
}

// instance is a planned combinational template instantiation.
type instance struct {
	template string // template module name, fully encoding the semantics
	ports    []portConn
	outputs  []netlist.ID // original nodes the template drives
	covered  []netlist.ID // original nodes the instance replaces
}

// Sequential block kinds.
const (
	regCounter = iota
	regShift
	regLoad
)

// regBlock is a planned always @(posedge clk) block over one latch word.
type regBlock struct {
	kind int
	q    []netlist.ID // latches, LSB/stage order

	en, rst netlist.ID // netlist.Nil when absent
	down    bool       // counter direction

	serialIn netlist.ID // shift register

	// load-register sources, outermost condition first.
	conds []netlist.ID
	srcs  [][]netlist.ID

	covered []netlist.ID
}

// plan is the complete lowering decision for one report. Its per-node
// tables are indexed by node ID.
type plan struct {
	instances  []*instance
	regs       []*regBlock
	covered    []bool      // nodes not emitted as residual
	exposed    []bool      // covered nodes still visible as nets
	referenced []bool      // nets named by an admitted plan's ports
	owner      []*instance // covered node -> owning instance
	nCovered   int         // covered nodes

	outDriver []bool // nets that drive a design output

	// seqBDD is the sequential planners' BDD manager, reset for each
	// proof, so one node table serves every proof of the emission.
	seqBDD *bdd.Manager

	// Per-candidate scratch of admit, drawn from the netlist's pooled
	// visited sets: the candidate's cover (its members also listed in
	// cover), its exposed nets, the nets it names, and the walks'
	// visited set.
	inCover, exposedNow, ownRefs, seen *netlist.VisitSet
	cover, stack                       []netlist.ID
}

// newPlan returns an empty plan over nl.
func newPlan(nl *netlist.Netlist) *plan {
	n := nl.Len()
	p := &plan{
		covered:    make([]bool, n),
		exposed:    make([]bool, n),
		referenced: make([]bool, n),
		owner:      make([]*instance, n),
		outDriver:  make([]bool, n),
		seqBDD:     bdd.New(0),
	}
	for _, o := range nl.Outputs() {
		p.outDriver[o.Driver] = true
	}
	return p
}

// hidden reports whether id is covered and not re-exposed.
func (p *plan) hidden(id netlist.ID) bool { return p.covered[id] && !p.exposed[id] }

// buildPlans walks the resolved modules and keeps every plan that
// verifies and does not leak an unexposed internal net. A resolved RAM has
// no template of its own: it is lowered through the verified modules that
// lie inside it (the muxes, decoders and word registers the RAM won over in
// overlap resolution), taken from rep.All in order.
func buildPlans(nl *netlist.Netlist, rep *core.Report) *plan {
	p := newPlan(nl)
	sets := []*netlist.VisitSet{nl.Visits(), nl.Visits(), nl.Visits(), nl.Visits()}
	defer func() {
		for _, s := range sets {
			s.Release()
		}
	}()
	p.inCover, p.exposedNow, p.ownRefs, p.seen = sets[0], sets[1], sets[2], sets[3]
	for _, m := range rep.Resolved {
		if m.Type != module.RAM {
			p.lower(nl, m)
			continue
		}
		inside := make(map[netlist.ID]bool, len(m.Elements))
		for _, id := range m.Elements {
			inside[id] = true
		}
		for _, part := range rep.All {
			if part.Type != module.RAM && allIn(part.Elements, inside) {
				p.lower(nl, part)
			}
		}
	}
	return p
}

// lower plans m by its type and admits the plan if it verifies.
func (p *plan) lower(nl *netlist.Netlist, m *module.Module) {
	switch m.Type {
	case module.Mux:
		if inst := planMux2(nl, m); inst != nil {
			p.admit(nl, inst, nil)
		}
	case module.Adder, module.Subtractor:
		if inst := planAddSub(nl, m); inst != nil {
			p.admit(nl, inst, nil)
		}
	case module.Decoder:
		if inst := planDecoder(nl, m); inst != nil {
			p.admit(nl, inst, nil)
		}
	case module.ParityTree:
		if inst := planParity(nl, m); inst != nil {
			p.admit(nl, inst, nil)
		}
	case module.PopCount:
		if inst := planPopCount(nl, m); inst != nil {
			p.admit(nl, inst, nil)
		}
	case module.Counter:
		if rb := planCounter(p.seqBDD, nl, m); rb != nil {
			p.admit(nl, nil, []*regBlock{rb})
		}
	case module.ShiftRegister:
		for _, rb := range planShift(p.seqBDD, nl, m) {
			p.admit(nl, nil, []*regBlock{rb})
		}
	case module.MultibitRegister:
		if rb := planRegister(p.seqBDD, nl, m); rb != nil {
			p.admit(nl, nil, []*regBlock{rb})
		}
	}
}

// admit runs the safety checks on a candidate plan and commits it. A node
// may only be hidden from the residual section when every consumer is
// itself hidden (by this or an earlier plan) or the node is re-exposed by
// the template (instance outputs, register Q aliases). Every net the
// template drives must be hidden by this plan, or the emitted file would
// drive it twice.
func (p *plan) admit(nl *netlist.Netlist, inst *instance, regs []*regBlock) {
	var covered, exposedList []netlist.ID
	if inst != nil {
		covered = inst.covered
		exposedList = inst.outputs
	}
	for _, rb := range regs {
		covered = append(covered, rb.covered...)
		exposedList = append(exposedList, rb.q...)
	}
	inCover := p.inCover
	inCover.Reset()
	p.cover = p.cover[:0]
	for _, id := range covered {
		// A node an earlier plan already hid (e.g. an inverter shared
		// between shift-register lanes) is simply not re-claimed.
		if !p.covered[id] && inCover.Visit(id) {
			p.cover = append(p.cover, id)
		}
	}
	exposed := p.exposedNow
	exposed.Reset()
	for _, id := range exposedList {
		// Template-driven nets must be owned by this very plan; if one is
		// an input, was dropped above, or fell outside the module's
		// element set, emitting the instance would double-drive it.
		if !inCover.Seen(id) {
			return
		}
		exposed.Visit(id)
	}
	// refs are the nets this plan names in its emitted text — instance
	// input connections and always-block operands. Each must stay visible:
	// a prior plan may not have hidden it, and this plan may not hide it.
	var refs []netlist.ID
	if inst != nil {
		for _, pc := range inst.ports {
			for _, id := range pc.bits {
				if !exposed.Seen(id) {
					refs = append(refs, id)
				}
			}
		}
	}
	for _, rb := range regs {
		for _, id := range concat([]netlist.ID{rb.en, rb.rst, rb.serialIn}, rb.conds, flatten(rb.srcs)) {
			if id != netlist.Nil {
				refs = append(refs, id)
			}
		}
	}
	p.ownRefs.Reset()
	for _, id := range refs {
		if p.hidden(id) || (inCover.Seen(id) && !exposed.Seen(id)) {
			return // a hidden net cannot be named
		}
		p.ownRefs.Visit(id)
	}
	// absorbDead appends to p.cover; the loop does not reach what it adds,
	// which needs no check here because its closure passed the same tests.
	for _, id := range p.cover {
		if exposed.Seen(id) {
			continue
		}
		if p.outDriver[id] || p.referenced[id] {
			return // hidden net drives a design output or is already named
		}
		for _, fo := range nl.Fanout(id) {
			if !inCover.Seen(fo) && !p.covered[fo] {
				// A consumer outside the plan is tolerable only when it is
				// dead logic (gates that transitively drive no output or
				// state); those are absorbed into the instance's span.
				if !p.absorbDead(nl, fo) {
					return // hidden net feeds live logic outside the plan
				}
			}
		}
	}
	if inst != nil && p.createsCycle(nl, inst) {
		return
	}
	for _, id := range refs {
		p.referenced[id] = true
	}
	// Write the committed cover back to the candidate (shared nodes an
	// earlier plan claimed are gone, absorbed dead logic is added) so
	// emission attributes line spans to the right construct.
	committed := slices.Clone(p.cover)
	slices.Sort(committed)
	if inst != nil {
		inst.covered = committed
		p.instances = append(p.instances, inst)
		for _, id := range committed {
			p.owner[id] = inst
		}
	} else if len(regs) == 1 {
		regs[0].covered = committed
	}
	p.regs = append(p.regs, regs...)
	for _, id := range committed {
		p.covered[id] = true
	}
	p.nCovered += len(committed)
	for _, id := range exposedList {
		p.exposed[id] = true
	}
}

// createsCycle reports whether admitting inst would make the emitted
// design cyclic at instance granularity. The elaborator expands an
// instance atomically — every output depends on every input — so a
// combinational path from one of inst's outputs through outside logic
// back into inst's own cover (fine at gate level) would deadlock the
// round-trip. Already-admitted instances are traversed atomically for the
// same reason; latches are state boundaries and stop the walk.
func (p *plan) createsCycle(nl *netlist.Netlist, inst *instance) bool {
	seen := p.seen
	seen.Reset()
	stack := p.stack[:0]
	defer func() { p.stack = stack[:0] }()
	push := func(id netlist.ID) {
		if seen.Visit(id) {
			stack = append(stack, id)
		}
	}
	for _, o := range inst.outputs {
		for _, fo := range nl.Fanout(o) {
			if !p.inCover.Seen(fo) {
				push(fo)
			}
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.inCover.Seen(id) {
			return true
		}
		if nl.Kind(id) == netlist.Latch {
			continue
		}
		if own := p.owner[id]; own != nil {
			for _, o := range own.outputs {
				for _, fo := range nl.Fanout(o) {
					push(fo)
				}
			}
			continue
		}
		for _, fo := range nl.Fanout(id) {
			push(fo)
		}
	}
	return false
}

// absorbDead checks whether the transitive fanout of start consists only
// of gates that drive no design output, no latch and no net a plan names
// — dead logic such as the unused top carry of a population counter's
// accumulator. If so it adds the whole closure to the candidate's cover
// and reports true.
func (p *plan) absorbDead(nl *netlist.Netlist, start netlist.ID) bool {
	seen := p.seen
	seen.Reset()
	n := len(p.cover)
	stack := append(p.stack[:0], start)
	defer func() { p.stack = stack[:0] }()
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen.Seen(id) || p.inCover.Seen(id) || p.covered[id] {
			continue
		}
		if !nl.Kind(id).IsGate() || p.outDriver[id] || p.referenced[id] || p.ownRefs.Seen(id) {
			p.cover = p.cover[:n]
			return false
		}
		seen.Visit(id)
		p.cover = append(p.cover, id)
		stack = append(stack, nl.Fanout(id)...)
	}
	for _, id := range p.cover[n:] {
		p.inCover.Visit(id)
	}
	return true
}

// coverableElements filters a module's element list down to the nodes a
// plan may legitimately replace: gates and latches, never the port input
// nets themselves.
func coverableElements(nl *netlist.Netlist, m *module.Module, keepLatches bool, portInputs []netlist.ID) []netlist.ID {
	skip := nl.Visits()
	defer skip.Release()
	for _, id := range portInputs {
		skip.Visit(id)
	}
	var out []netlist.ID
	for _, id := range m.Elements {
		if skip.Seen(id) {
			continue
		}
		k := nl.Kind(id)
		if k.IsGate() || (keepLatches && k == netlist.Latch) {
			out = append(out, id)
		}
	}
	return out
}

// --- functional verification primitives ---

// distinct reports whether the ids are pairwise distinct and valid. The
// lists are short (at most maxExactVars), so pairs are compared directly.
func distinct(ids ...netlist.ID) bool {
	for i, id := range ids {
		if id == netlist.Nil || slices.Contains(ids[:i], id) {
			return false
		}
	}
	return true
}

// coneWithin reports whether root's fan-in cone, cut at the given leaves,
// stays under maxConeNodes.
func coneWithin(nl *netlist.Netlist, root netlist.ID, leaves []netlist.ID) bool {
	// The leaves are marked visited up front, so the walk stops at them
	// without counting them.
	seen := nl.Visits()
	defer seen.Release()
	for _, l := range leaves {
		seen.Visit(l)
	}
	visited := 0
	stack := []netlist.ID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !seen.Visit(id) {
			continue
		}
		if visited++; visited > maxConeNodes {
			return false
		}
		if nl.Kind(id).IsConeInput() {
			continue
		}
		stack = append(stack, nl.Fanin(id)...)
	}
	return true
}

// exactFunc proves root == f(leaves) by exhaustive bit-parallel sweep:
// the leaves (which may be internal nets — bitsim cuts them loose) carry
// all 2^k assignments, every other signal is X, and every row must come
// out Known and equal to f. This checks the function and the independence
// from non-leaf signals in one pass.
func exactFunc(nl *netlist.Netlist, root netlist.ID, leaves []netlist.ID, f func(row uint) bool) bool {
	k := len(leaves)
	if k > maxExactVars || !distinct(leaves...) {
		return false
	}
	for _, l := range leaves {
		if l == root {
			return false
		}
		if k := nl.Kind(l); k == netlist.Const0 || k == netlist.Const1 {
			return false
		}
	}
	if !coneWithin(nl, root, leaves) {
		return false
	}
	total := 1 << uint(k)
	cone := bitsim.CompileCone(nl, []netlist.ID{root}, leaves)
	for base := 0; base < total; base += bitsim.Lanes {
		for li, l := range leaves {
			var bitsv uint64
			for lane := 0; lane < bitsim.Lanes && base+lane < total; lane++ {
				if (base+lane)>>uint(li)&1 == 1 {
					bitsv |= 1 << uint(lane)
				}
			}
			cone.Force(l, bitsim.Known(bitsv))
		}
		v := cone.Eval()[0]
		for lane := 0; lane < bitsim.Lanes && base+lane < total; lane++ {
			if v.Unk>>uint(lane)&1 == 1 {
				return false
			}
			if (v.Val>>uint(lane)&1 == 1) != f(uint(base+lane)) {
				return false
			}
		}
	}
	return true
}

func bit(row uint, i int) bool { return row>>uint(i)&1 == 1 }

// --- combinational planners ---

// planMux2 lowers a 2:1 word mux: out_i == sel ? d1_i : d0_i, proven
// exhaustively per bit.
func planMux2(nl *netlist.Netlist, m *module.Module) *instance {
	sel, out, d0, d1 := m.Port("sel"), m.Port("out"), m.Port("d0"), m.Port("d1")
	if len(sel) != 1 || len(out) < 2 || len(d0) != len(out) || len(d1) != len(out) {
		return nil
	}
	for i, o := range out {
		ok := exactFunc(nl, o, []netlist.ID{sel[0], d0[i], d1[i]}, func(row uint) bool {
			if bit(row, 0) {
				return bit(row, 2)
			}
			return bit(row, 1)
		})
		if !ok {
			return nil
		}
	}
	covered := coverableElements(nl, m, false, concat(sel, d0, d1))
	if !containsAll(covered, out) {
		return nil
	}
	return &instance{
		template: fmt.Sprintf("re_mux2_w%d", len(out)),
		ports: []portConn{
			{"sel", sel}, {"d0", d0}, {"d1", d1}, {"out", out},
		},
		outputs: out,
		covered: covered,
	}
}

// planAddSub lowers ripple carry/borrow chains. The slice-wise proof
// follows the carry word: sum_0 must be xor2 of (a_0,b_0), each carry the
// majority (adder) or borrow (subtractor) function of its slice, and each
// higher sum the xor3 of its slice with the incoming carry. Chains with
// an external carry-in are left as residual logic.
func planAddSub(nl *netlist.Netlist, m *module.Module) *instance {
	sum, a, b, carry := m.Port("sum"), m.Port("a"), m.Port("b"), m.Port("carry")
	n := len(sum)
	if n < 2 || len(a) != n || len(b) != n {
		return nil
	}
	return tryAddSub(nl, m, sum, a, b, carry, m.Type == module.Subtractor)
}

func tryAddSub(nl *netlist.Netlist, m *module.Module, sum, a, b, carry []netlist.ID, sub bool) *instance {
	n := len(sum)
	// The aggregation does not fix which operand bit is the minuend — and
	// it may decide differently per slice — so subtraction (asymmetric in
	// its operands) resolves the orientation bit by bit below.
	a = append([]netlist.ID(nil), a...)
	b = append([]netlist.ID(nil), b...)
	// Slice functions. Variable order in every row: bit0=a_i, bit1=b_i,
	// bit2=carry-in.
	sum2 := func(row uint) bool { return bit(row, 0) != bit(row, 1) }
	sum3 := func(row uint) bool { return bit(row, 0) != bit(row, 1) != bit(row, 2) }
	var cout2, cout3 func(row uint) bool
	if sub {
		cout2 = func(row uint) bool { return !bit(row, 0) && bit(row, 1) }
		cout3 = func(row uint) bool {
			x, y, c := !bit(row, 0), bit(row, 1), bit(row, 2)
			return (x && y) || (x && c) || (y && c)
		}
	} else {
		cout2 = func(row uint) bool { return bit(row, 0) && bit(row, 1) }
		cout3 = func(row uint) bool {
			x, y, c := bit(row, 0), bit(row, 1), bit(row, 2)
			return (x && y) || (x && c) || (y && c)
		}
	}

	// couts[i] is the net carrying the carry/borrow out of bit i; the
	// bit-0 half carry may be hidden (not in the carry port) when the
	// chain head was aggregated from a half slice.
	couts := make([]netlist.ID, n)
	var hidden netlist.ID = netlist.Nil
	switch len(carry) {
	case n:
		copy(couts, carry)
	case n - 1:
		// carry port holds couts of bits 1..n-1; recover the hidden
		// half carry from the bit-1 sum slice's fanins.
		for _, f := range nl.Fanin(sum[1]) {
			if f == a[1] || f == b[1] {
				continue
			}
			if hidden != netlist.Nil && hidden != f {
				return nil
			}
			hidden = f
		}
		if hidden == netlist.Nil {
			return nil
		}
		couts[0] = hidden
		copy(couts[1:], carry)
	default:
		return nil
	}

	if !exactFunc(nl, sum[0], []netlist.ID{a[0], b[0]}, sum2) {
		return nil
	}
	if !exactFunc(nl, couts[0], []netlist.ID{a[0], b[0]}, cout2) {
		if !sub {
			return nil
		}
		a[0], b[0] = b[0], a[0]
		if !exactFunc(nl, couts[0], []netlist.ID{a[0], b[0]}, cout2) {
			return nil
		}
	}
	for i := 1; i < n; i++ {
		if !exactFunc(nl, sum[i], []netlist.ID{a[i], b[i], couts[i-1]}, sum3) {
			return nil
		}
		if !exactFunc(nl, couts[i], []netlist.ID{a[i], b[i], couts[i-1]}, cout3) {
			if !sub {
				return nil
			}
			a[i], b[i] = b[i], a[i]
			if !exactFunc(nl, couts[i], []netlist.ID{a[i], b[i], couts[i-1]}, cout3) {
				return nil
			}
		}
	}

	// The hidden half carry is NOT exposed: if it feeds anything outside
	// the module, admit() rejects the plan and the chain stays residual.
	outs := append(append([]netlist.ID(nil), sum...), carry...)
	covered := coverableElements(nl, m, false, concat(a, b))
	if !containsAll(covered, sum) {
		return nil
	}
	kind := "adder"
	if sub {
		kind = "sub"
	}
	return &instance{
		template: fmt.Sprintf("re_%s_w%d_c%d", kind, n, len(carry)),
		ports: []portConn{
			{"a", a}, {"b", b}, {"sum", sum}, {"carry", carry},
		},
		outputs: outs,
		covered: covered,
	}
}

// planDecoder lowers a verified decoder whose every output is a single
// minterm (or its complement) over the select word.
func planDecoder(nl *netlist.Netlist, m *module.Module) *instance {
	in, out := m.Port("in"), m.Port("out")
	k := len(in)
	if k < 1 || k > truth.MaxVars || len(out) < 2 {
		return nil
	}
	activeLow := m.Attr != nil && m.Attr["polarity"] == "active-low"
	minterms := make([]int, len(out))
	for i, o := range out {
		if !coneWithin(nl, o, in) {
			return nil
		}
		tab, ok := bitsim.TableOf(nl, o, in)
		if !ok {
			return nil
		}
		bitsv := tab.Bits
		if activeLow {
			bitsv = ^bitsv & truth.Mask(k)
		}
		if bits.OnesCount64(bitsv) != 1 {
			return nil
		}
		minterms[i] = bits.TrailingZeros64(bitsv)
	}
	pol := "ah"
	if activeLow {
		pol = "al"
	}
	name := fmt.Sprintf("re_decoder_w%d_%s", k, pol)
	for _, mt := range minterms {
		name += fmt.Sprintf("_m%d", mt)
	}
	covered := coverableElements(nl, m, false, in)
	if !containsAll(covered, out) {
		return nil
	}
	return &instance{
		template: name,
		ports:    []portConn{{"in", in}, {"out", out}},
		outputs:  out,
		covered:  covered,
	}
}

// planParity lowers an xor tree. Leaves may repeat (a net feeding the
// tree twice cancels), so the proof enumerates the distinct leaves and
// expects the parity of the odd-multiplicity subset.
func planParity(nl *netlist.Netlist, m *module.Module) *instance {
	in, out := m.Port("in"), m.Port("out")
	if len(out) != 1 || len(in) < 2 {
		return nil
	}
	mult := map[netlist.ID]int{}
	var order []netlist.ID
	for _, id := range in {
		if mult[id] == 0 {
			order = append(order, id)
		}
		mult[id]++
	}
	var oddMask uint
	for i, id := range order {
		if mult[id]%2 == 1 {
			oddMask |= 1 << uint(i)
		}
	}
	f := func(row uint) bool { return bits.OnesCount(row&oddMask)%2 == 1 }
	if !exactFunc(nl, out[0], order, f) {
		return nil
	}
	odd := make([]netlist.ID, 0, len(order))
	for _, id := range order {
		if mult[id]%2 == 1 {
			odd = append(odd, id)
		}
	}
	if len(odd) == 0 {
		return nil // constant zero; leave as residual logic
	}
	covered := coverableElements(nl, m, false, order)
	if !containsAll(covered, out) {
		return nil
	}
	return &instance{
		template: fmt.Sprintf("re_parity_w%d", len(odd)),
		ports:    []portConn{{"in", odd}, {"out", out}},
		outputs:  out,
		covered:  covered,
	}
}

// planPopCount lowers a population counter whose count word is the low
// bits of popcount(in), proven exhaustively.
func planPopCount(nl *netlist.Netlist, m *module.Module) *instance {
	in, count := m.Port("in"), m.Port("count")
	k := len(in)
	if k < 3 || k > maxExactVars || len(count) < 2 {
		return nil
	}
	for j, c := range count {
		jj := j
		ok := exactFunc(nl, c, in, func(row uint) bool {
			return bits.OnesCount(row)>>uint(jj)&1 == 1
		})
		if !ok {
			return nil
		}
	}
	covered := coverableElements(nl, m, false, in)
	if !containsAll(covered, count) {
		return nil
	}
	return &instance{
		template: fmt.Sprintf("re_popcount_w%d_o%d", k, len(count)),
		ports:    []portConn{{"in", in}, {"count", count}},
		outputs:  count,
		covered:  covered,
	}
}

// --- sequential planners ---

// seqBDDLimit bounds the node table of one sequential proof. Over the
// control cut the next-state functions of counters, shift registers and
// load registers stay linear in their width; a cone that overflows the
// table keeps its block residual.
const seqBDDLimit = 1 << 16

// seqProof holds the next-state BDDs of one sequential module over its
// control cut. A node is a cut leaf (a BDD variable) when it lies outside
// the module's elements, or when it is an element gate in the D-cones of
// two or more of the module's latches: the shared enables, resets and
// conditions. An inverter is never a leaf, so a control and its
// complement read one variable.
type seqProof struct {
	nl *netlist.Netlist
	m  *bdd.Manager
	b  *bdd.Builder
}

// newSeqProof cuts the D-cones of latches, or returns nil when one of
// them is not a latch. The proof runs on mgr, reset first.
func newSeqProof(mgr *bdd.Manager, nl *netlist.Netlist, m *module.Module, latches []netlist.ID) *seqProof {
	elems := make(map[netlist.ID]bool, len(m.Elements))
	for _, id := range m.Elements {
		elems[id] = true
	}
	// cones counts, per element gate, the latches whose D-cone holds it.
	cones := map[netlist.ID]int{}
	for _, l := range latches {
		if nl.Kind(l) != netlist.Latch {
			return nil
		}
		walkD(nl, []netlist.ID{l},
			func(id netlist.ID) bool { return !elems[id] },
			func(id netlist.ID) { cones[id]++ })
	}
	mgr.Reset()
	mgr.Limit = seqBDDLimit
	b := bdd.NewBuilder(mgr, nl)
	b.Leaf = func(id netlist.ID) bool {
		if k, unary := nl.Node(id).UnaryKind(); unary && k == netlist.Not {
			return false
		}
		return !elems[id] || cones[id] >= 2
	}
	return &seqProof{nl: nl, m: mgr, b: b}
}

// walkD visits each gate of the D-cones of latches once, stopping at the
// nodes cut reports without visiting them.
func walkD(nl *netlist.Netlist, latches []netlist.ID, cut func(netlist.ID) bool, visit func(netlist.ID)) {
	var stack []netlist.ID
	for _, l := range latches {
		stack = append(stack, nl.Fanin(l)[0])
	}
	seen := map[netlist.ID]bool{}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] || !nl.Kind(id).IsGate() || cut(id) {
			continue
		}
		seen[id] = true
		visit(id)
		stack = append(stack, nl.Fanin(id)...)
	}
}

// run evaluates proof under the node limit; an overflow fails the proof,
// so a block the BDD cannot decide stays residual.
func (s *seqProof) run(proof func() bool) bool {
	ok := false
	return s.m.Run(func() { ok = proof() }) == nil && ok
}

// next returns the BDD of latch l's next-state function.
func (s *seqProof) next(l netlist.ID) bdd.Ref { return s.b.Build(s.nl.Fanin(l)[0]) }

// v returns the variable of signal id.
func (s *seqProof) v(id netlist.ID) bdd.Ref { return s.m.Var(s.b.VarOf(id)) }

// support returns the signals f depends on, other than drop.
func (s *seqProof) support(f bdd.Ref, drop ...netlist.ID) []netlist.ID {
	var out []netlist.ID
	for _, v := range s.m.Support(f) {
		if id := s.b.SignalOf(v); !slices.Contains(drop, id) {
			out = append(out, id)
		}
	}
	return out
}

// literal returns the variable and polarity of f when f is one literal.
func (s *seqProof) literal(f bdd.Ref) (v int, pos, ok bool) {
	sup := s.m.Support(f)
	if len(sup) != 1 {
		return 0, false, false
	}
	return sup[0], f == s.m.Var(sup[0]), true
}

// reset wraps f in an optional synchronous reset: ¬rst ∧ f.
func (s *seqProof) reset(rst netlist.ID, f bdd.Ref) bdd.Ref {
	if rst != netlist.Nil {
		f = s.m.And(s.m.Not(s.v(rst)), f)
	}
	return f
}

// roles tells an enable from an optional synchronous reset by function:
// ctl holds one or two control signals, and fits is tried on each
// assignment of them to the two roles.
func roles(ctl []netlist.ID, fits func(en, rst netlist.ID) bool) (en, rst netlist.ID, ok bool) {
	switch len(ctl) {
	case 1:
		if fits(ctl[0], netlist.Nil) {
			return ctl[0], netlist.Nil, true
		}
	case 2:
		for _, p := range [][2]netlist.ID{{ctl[0], ctl[1]}, {ctl[1], ctl[0]}} {
			if fits(p[0], p[1]) {
				return p[0], p[1], true
			}
		}
	}
	return netlist.Nil, netlist.Nil, false
}

// planCounter proves a synchronous counter from its next-state function.
// The enable and optional reset are the signals D(q_0) reads besides q_0,
// and every bit must equal ¬rst ∧ (q_i ⊕ (en ∧ q_0 ∧ … ∧ q_{i-1})), with
// the lower bits complemented for a down counter. The width is not capped.
func planCounter(mgr *bdd.Manager, nl *netlist.Netlist, m *module.Module) *regBlock {
	q := m.Port("q")
	s := newSeqProof(mgr, nl, m, q)
	if len(q) < 2 || s == nil {
		return nil
	}
	down := m.Attr != nil && m.Attr["direction"] == "down"
	want := func(i int, en, rst netlist.ID) bdd.Ref {
		t := s.v(en)
		for _, l := range q[:i] {
			lower := s.v(l)
			if down {
				lower = s.m.Not(lower)
			}
			t = s.m.And(t, lower)
		}
		return s.reset(rst, s.m.Xor(s.v(q[i]), t))
	}
	rb := &regBlock{kind: regCounter, q: q, down: down}
	proven := s.run(func() bool {
		d0 := s.next(q[0])
		var ok bool
		rb.en, rb.rst, ok = roles(s.support(d0, q[0]), func(en, rst netlist.ID) bool {
			return d0 == want(0, en, rst)
		})
		// An enable or reset that is itself a counter bit would break the
		// word-level reading.
		if !ok || slices.Contains(q, rb.en) || slices.Contains(q, rb.rst) {
			return false
		}
		for i := 1; i < len(q); i++ {
			if s.next(q[i]) != want(i, rb.en, rb.rst) {
				return false
			}
		}
		return true
	})
	if !proven {
		return nil
	}
	rb.covered = coverableElements(nl, m, true, minus([]netlist.ID{rb.en, rb.rst}, q))
	return rb
}

// planShift proves each lane of a (possibly multi-lane) shift register
// from its next-state functions. The enable and optional reset are the
// signals the first lane's D(q_1) reads besides q_0 and q_1, shared by
// every lane; a lane's serial input is the one other signal its D(q_0)
// reads; and every stage must equal ¬rst ∧ (en ? prev : q_i). Each lane
// becomes its own always block, covering its latches and the gates its
// proof read, and one failed lane keeps the whole module residual.
func planShift(mgr *bdd.Manager, nl *netlist.Netlist, m *module.Module) []*regBlock {
	var lanes [][]netlist.ID
	for i := 0; ; i++ {
		lane := m.Port(fmt.Sprintf("q%d", i))
		if len(lane) == 0 {
			break
		}
		if len(lane) < 2 {
			return nil
		}
		lanes = append(lanes, lane)
	}
	s := newSeqProof(mgr, nl, m, concat(lanes...))
	if len(lanes) == 0 || s == nil {
		return nil
	}
	want := func(en, rst, prev, qi netlist.ID) bdd.Ref {
		return s.reset(rst, s.m.ITE(s.v(en), s.v(prev), s.v(qi)))
	}
	var out []*regBlock
	proven := s.run(func() bool {
		first := lanes[0]
		d1 := s.next(first[1])
		en, rst, ok := roles(s.support(d1, first[0], first[1]), func(en, rst netlist.ID) bool {
			return d1 == want(en, rst, first[0], first[1])
		})
		if !ok {
			return false
		}
		for _, lane := range lanes {
			si := s.support(s.next(lane[0]), lane[0], en, rst)
			if len(si) != 1 {
				return false
			}
			prev := si[0]
			for _, l := range lane {
				if s.next(l) != want(en, rst, prev, l) {
					return false
				}
				prev = l
			}
			out = append(out, &regBlock{kind: regShift, q: lane, en: en, rst: rst, serialIn: si[0]})
		}
		return true
	})
	if !proven {
		return nil
	}
	for _, rb := range out {
		keep := map[netlist.ID]bool{}
		for _, id := range coverableElements(nl, m, true, minus([]netlist.ID{rb.en, rb.rst, rb.serialIn}, rb.q)) {
			keep[id] = true
		}
		add := func(id netlist.ID) {
			if keep[id] {
				rb.covered = append(rb.covered, id)
			}
		}
		for _, l := range rb.q {
			add(l)
		}
		walkD(nl, rb.q, s.b.Leaf, add)
	}
	return out
}

// planRegister proves the Figure-7 multibit register, D = c_0 ? src_0 :
// (c_1 ? src_1 : … q), from its next-state functions. The conditions come
// from the cond port, outermost first. c is the next condition when every
// bit's D|c=1 is one signal, its source bit; D == ITE(c, src, D|c=0) then
// holds by Shannon expansion, and the proof goes on with D|c=0. The
// register is proven once every remaining level is the bit's own latch.
func planRegister(mgr *bdd.Manager, nl *netlist.Netlist, m *module.Module) *regBlock {
	q := m.Port("q")
	s := newSeqProof(mgr, nl, m, q)
	if len(q) < 2 || s == nil {
		return nil
	}
	rb := &regBlock{kind: regLoad, q: q}
	proven := s.run(func() bool {
		level := make([]bdd.Ref, len(q))
		for i, l := range q {
			level[i] = s.next(l)
		}
		held := func() bool {
			for i, l := range q {
				if level[i] != s.v(l) {
					return false
				}
			}
			return true
		}
		// peel takes c as the next condition if it is one.
		peel := func(c netlist.ID) bool {
			v, pos, ok := s.literal(s.b.Build(c))
			if !ok {
				return false
			}
			src := make([]netlist.ID, len(q))
			rest := make([]bdd.Ref, len(q))
			for i, d := range level {
				sv, spos, ok := s.literal(s.m.Restrict(d, v, pos))
				if !ok || !spos {
					return false
				}
				src[i], rest[i] = s.b.SignalOf(sv), s.m.Restrict(d, v, !pos)
			}
			rb.conds, rb.srcs, level = append(rb.conds, c), append(rb.srcs, src), rest
			return true
		}
		for _, c := range m.Port("cond") {
			if held() {
				break
			}
			if !peel(c) {
				return false
			}
		}
		return held() && len(rb.conds) > 0
	})
	if !proven {
		return nil
	}
	rb.covered = coverableElements(nl, m, true, minus(concat(rb.conds, flatten(rb.srcs)), q))
	return rb
}

// --- small helpers ---

func concat(words ...[]netlist.ID) []netlist.ID {
	var out []netlist.ID
	for _, w := range words {
		out = append(out, w...)
	}
	return out
}

func flatten(words [][]netlist.ID) []netlist.ID { return concat(words...) }

// minus returns ids without any member of drop.
func minus(ids, drop []netlist.ID) []netlist.ID {
	in := map[netlist.ID]bool{}
	for _, id := range drop {
		in[id] = true
	}
	var out []netlist.ID
	for _, id := range ids {
		if !in[id] {
			out = append(out, id)
		}
	}
	return out
}

func containsAll(set []netlist.ID, want []netlist.ID) bool {
	in := map[netlist.ID]bool{}
	for _, id := range set {
		in[id] = true
	}
	return allIn(want, in)
}

// allIn reports whether every id is in the set.
func allIn(ids []netlist.ID, set map[netlist.ID]bool) bool {
	for _, id := range ids {
		if !set[id] {
			return false
		}
	}
	return true
}
