package rtl

// The lowering planner. For each resolved module it proves, at emission
// time, that the module's logic computes a known reference template
// exactly; only proven modules are lowered, everything else is passed
// through as residual logic. Every proof checks function, never gate
// shape, so LUT-mapped and gate-level netlists lower alike. Every proof is
// BDD equality on one manager. A combinational template output is built
// over a cut at the template's port bits and compared with the template's
// function of them; every other signal the cone reads is a variable too,
// so equality also proves that the output reads nothing else. A
// sequential template is proven by comparing every latch's next-state
// function, cut at the module's shared controls, with the template's next
// state.

import (
	"fmt"
	"slices"

	"netlistre/internal/bdd"
	"netlistre/internal/core"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/truth"
)

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

	// bld is the planners' one BDD builder, on their one manager; both are
	// reset for each proof, so one node table serves every proof of the
	// emission.
	bld *bdd.Builder

	// Per-candidate scratch, drawn from the netlist's pooled visited sets:
	// a combinational proof's port bits; a sequential proof's module
	// elements, the element gates of some latch's D-cone and those of two
	// or more; admit's candidate cover (its members also listed in cover),
	// its exposed nets and the nets it names; and the walks' visited set.
	ports, elems, inD, shared          *netlist.VisitSet
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
		bld:        bdd.NewBuilder(bdd.New(0), nl),
	}
	for _, o := range nl.Outputs() {
		p.outDriver[o.Driver] = true
	}
	return p
}

// drawScratch draws the plan's visited sets from nl's pool and returns the
// function that hands them back.
func (p *plan) drawScratch(nl *netlist.Netlist) (release func()) {
	sets := []**netlist.VisitSet{&p.ports, &p.elems, &p.inD, &p.shared, &p.inCover, &p.exposedNow, &p.ownRefs, &p.seen}
	for _, s := range sets {
		*s = nl.Visits()
	}
	return func() {
		for _, s := range sets {
			(*s).Release()
		}
	}
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
	defer p.drawScratch(nl)()
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
	var inst *instance
	switch m.Type {
	case module.Mux:
		inst = p.planMux2(nl, m)
	case module.Adder, module.Subtractor:
		inst = p.planAddSub(nl, m)
	case module.Decoder:
		inst = p.planDecoder(nl, m)
	case module.ParityTree:
		inst = p.planParity(nl, m)
	case module.PopCount:
		inst = p.planPopCount(nl, m)
	case module.Counter:
		if rb := p.planCounter(nl, m); rb != nil {
			p.admit(nl, nil, []*regBlock{rb})
		}
	case module.ShiftRegister:
		for _, rb := range p.planShift(nl, m) {
			p.admit(nl, nil, []*regBlock{rb})
		}
	case module.MultibitRegister:
		if rb := p.planRegister(nl, m); rb != nil {
			p.admit(nl, nil, []*regBlock{rb})
		}
	}
	if inst != nil {
		p.admit(nl, inst, nil)
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

// --- proofs ---

// maxExactVars bounds the port bits one combinational output may be a
// template function of.
const maxExactVars = 14

// proofBDDLimit bounds the node table of one proof. Over a template's port
// bits, or a register's control cut, the proven functions stay linear in
// the width; a cone that overflows the table keeps its block residual.
const proofBDDLimit = 1 << 16

// proof holds the BDDs of one module's nets over a cut of their cones, on
// the plan's one manager. The cut nodes are variables, and so is every
// design input or latch a cone reaches past them, so a net whose BDD
// equals a template's over the cut's variables also depends on nothing
// else.
type proof struct {
	nl *netlist.Netlist
	m  *bdd.Manager
	b  *bdd.Builder
}

// newProof resets the plan's builder and manager and opens a proof whose
// cones are cut at the nodes leaf reports.
func (p *plan) newProof(nl *netlist.Netlist, leaf func(netlist.ID) bool) *proof {
	b := p.bld
	b.M.Reset()
	b.M.Limit = proofBDDLimit
	b.Reset()
	b.Leaf = leaf
	return &proof{nl: nl, m: b.M, b: b}
}

// portProof opens the proof of a combinational template, cut at its port
// bits: the words a template output is a function of, collected in the
// plan's pooled leaf set.
func (p *plan) portProof(nl *netlist.Netlist, words ...[]netlist.ID) *proof {
	p.ports.Reset()
	for _, w := range words {
		for _, id := range w {
			p.ports.Visit(id)
		}
	}
	return p.newProof(nl, p.ports.Seen)
}

// run evaluates check under the node limit; an overflow fails the proof,
// so a block the BDD cannot decide stays residual.
func (s *proof) run(check func() bool) bool {
	ok := false
	return s.m.Run(func() { ok = check() }) == nil && ok
}

// v returns the variable of signal id.
func (s *proof) v(id netlist.ID) bdd.Ref { return s.m.Var(s.b.VarOf(id)) }

// fn returns the function of root, a template output over the port bits
// leaves, or false when no template may read those leaves: they must be
// distinct non-constant nets (a repeat or a constant folds the template
// into another function), at most maxExactVars of them, and must not
// include root. A root that is itself a port bit, such as a carry that
// feeds the next slice, is expanded over its own fanins.
func (s *proof) fn(root netlist.ID, leaves ...netlist.ID) (bdd.Ref, bool) {
	if len(leaves) > maxExactVars || !distinct(leaves...) || slices.Contains(leaves, root) {
		return bdd.False, false
	}
	for _, l := range leaves {
		if k := s.nl.Kind(l); k == netlist.Const0 || k == netlist.Const1 {
			return bdd.False, false
		}
	}
	return s.b.Expand(root), true
}

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

// --- combinational planners ---

// planMux2 lowers a 2:1 word mux: out_i == sel ? d1_i : d0_i for every bit.
func (p *plan) planMux2(nl *netlist.Netlist, m *module.Module) *instance {
	sel, out, d0, d1 := m.Port("sel"), m.Port("out"), m.Port("d0"), m.Port("d1")
	if len(sel) != 1 || len(out) < 2 || len(d0) != len(out) || len(d1) != len(out) {
		return nil
	}
	s := p.portProof(nl, sel, d0, d1)
	proven := s.run(func() bool {
		for i, o := range out {
			f, ok := s.fn(o, sel[0], d0[i], d1[i])
			if !ok || f != s.m.ITE(s.v(sel[0]), s.v(d1[i]), s.v(d0[i])) {
				return false
			}
		}
		return true
	})
	if !proven {
		return nil
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
// follows the carry word, cut at each slice's carry-in: sum_i must be the
// xor of a_i, b_i and the carry-in, and the carry-out the majority of the
// three (adder) or of ¬a_i, b_i and the carry-in (subtractor). Bit 0 has
// no carry-in. Chains with an external carry-in are left as residual
// logic.
func (p *plan) planAddSub(nl *netlist.Netlist, m *module.Module) *instance {
	sum, a, b, carry := m.Port("sum"), m.Port("a"), m.Port("b"), m.Port("carry")
	n := len(sum)
	if n < 2 || len(a) != n || len(b) != n {
		return nil
	}
	sub := m.Type == module.Subtractor
	// The aggregation does not fix which operand bit is the minuend — and
	// it may decide differently per slice — so subtraction (asymmetric in
	// its operands) resolves the orientation bit by bit below.
	a = slices.Clone(a)
	b = slices.Clone(b)

	// couts[i] is the net carrying the carry/borrow out of bit i; the
	// bit-0 half carry may be hidden (not in the carry port) when the
	// chain head was aggregated from a half slice.
	couts := make([]netlist.ID, n)
	switch len(carry) {
	case n:
		copy(couts, carry)
	case n - 1:
		// carry port holds couts of bits 1..n-1; recover the hidden
		// half carry from the bit-1 sum slice's fanins.
		hidden := netlist.Nil
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

	s := p.portProof(nl, a, b, couts[:n-1])
	cout := func(x, y, c bdd.Ref) bdd.Ref {
		if sub {
			x = s.m.Not(x)
		}
		return s.m.Or(s.m.And(x, y), s.m.And(c, s.m.Or(x, y)))
	}
	proven := s.run(func() bool {
		for i := range sum {
			leaves := []netlist.ID{a[i], b[i]}
			cin := bdd.False
			if i > 0 {
				leaves = append(leaves, couts[i-1])
				cin = s.v(couts[i-1])
			}
			fs, ok := s.fn(sum[i], leaves...)
			if !ok || fs != s.m.Xor(s.m.Xor(s.v(a[i]), s.v(b[i])), cin) {
				return false
			}
			fc, ok := s.fn(couts[i], leaves...)
			if !ok {
				return false
			}
			if fc != cout(s.v(a[i]), s.v(b[i]), cin) {
				if !sub {
					return false
				}
				a[i], b[i] = b[i], a[i]
				if fc != cout(s.v(a[i]), s.v(b[i]), cin) {
					return false
				}
			}
		}
		return true
	})
	if !proven {
		return nil
	}

	// The hidden half carry is NOT exposed: if it feeds anything outside
	// the module, admit() rejects the plan and the chain stays residual.
	outs := concat(sum, carry)
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
// minterm (or its complement) over the select word. The minterm is read
// off the output's BDD, one select at a time.
func (p *plan) planDecoder(nl *netlist.Netlist, m *module.Module) *instance {
	in, out := m.Port("in"), m.Port("out")
	k := len(in)
	if k < 1 || k > truth.MaxVars || len(out) < 2 {
		return nil
	}
	activeLow := m.Attr != nil && m.Attr["polarity"] == "active-low"
	minterms := make([]int, len(out))
	s := p.portProof(nl, in)
	proven := s.run(func() bool {
		for i, o := range out {
			f, ok := s.fn(o, in...)
			if !ok {
				return false
			}
			if activeLow {
				f = s.m.Not(f)
			}
			// f is a minterm when, select by select, one cofactor is false
			// and the other goes on, down to true.
			for j, id := range in {
				v := s.b.VarOf(id)
				lo, hi := s.m.Restrict(f, v, false), s.m.Restrict(f, v, true)
				switch {
				case lo == bdd.False:
					f = hi
					minterms[i] |= 1 << j
				case hi == bdd.False:
					f = lo
				default:
					return false
				}
			}
			if f != bdd.True {
				return false
			}
		}
		return true
	})
	if !proven {
		return nil
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
// tree twice cancels), so the proof reads the distinct leaves and expects
// the parity of those that occur an odd number of times.
func (p *plan) planParity(nl *netlist.Netlist, m *module.Module) *instance {
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
	odd := make([]netlist.ID, 0, len(order))
	for _, id := range order {
		if mult[id]%2 == 1 {
			odd = append(odd, id)
		}
	}
	if len(odd) == 0 {
		return nil // constant zero; leave as residual logic
	}
	s := p.portProof(nl, order)
	proven := s.run(func() bool {
		f, ok := s.fn(out[0], order...)
		want := bdd.False
		for _, id := range odd {
			want = s.m.Xor(want, s.v(id))
		}
		return ok && f == want
	})
	if !proven {
		return nil
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
// bits of popcount(in).
func (p *plan) planPopCount(nl *netlist.Netlist, m *module.Module) *instance {
	in, count := m.Port("in"), m.Port("count")
	k := len(in)
	if k < 3 || k > maxExactVars || len(count) < 2 {
		return nil
	}
	s := p.portProof(nl, in)
	proven := s.run(func() bool {
		xs := make([]bdd.Ref, k)
		for i, id := range in {
			xs[i] = s.v(id)
		}
		word := s.m.PopCount(xs)
		for j, c := range count {
			want := bdd.False
			if j < len(word) {
				want = word[j]
			}
			if f, ok := s.fn(c, in...); !ok || f != want {
				return false
			}
		}
		return true
	})
	if !proven {
		return nil
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

// seqProof opens the proof of a sequential module over its control cut:
// the D-cones of latches, cut at every node outside the module's elements
// and at every element gate in the D-cones of two or more of the latches
// (the shared enables, resets and conditions). An inverter is never a cut,
// so a control and its complement read one variable. It returns nil when
// one of latches is not a latch.
func (p *plan) seqProof(nl *netlist.Netlist, m *module.Module, latches []netlist.ID) *proof {
	p.elems.Reset()
	for _, id := range m.Elements {
		p.elems.Visit(id)
	}
	p.inD.Reset()
	p.shared.Reset()
	for _, l := range latches {
		if nl.Kind(l) != netlist.Latch {
			return nil
		}
		p.walkD(nl, []netlist.ID{l},
			func(id netlist.ID) bool { return !p.elems.Seen(id) },
			func(id netlist.ID) {
				if !p.inD.Visit(id) {
					p.shared.Visit(id)
				}
			})
	}
	return p.newProof(nl, func(id netlist.ID) bool {
		if k, unary := nl.Node(id).UnaryKind(); unary && k == netlist.Not {
			return false
		}
		return !p.elems.Seen(id) || p.shared.Seen(id)
	})
}

// walkD visits each gate of the D-cones of latches once, stopping at the
// nodes cut reports without visiting them. It uses the plan's walk
// scratch, so visit must not start another walk.
func (p *plan) walkD(nl *netlist.Netlist, latches []netlist.ID, cut func(netlist.ID) bool, visit func(netlist.ID)) {
	seen := p.seen
	seen.Reset()
	stack := p.stack[:0]
	defer func() { p.stack = stack[:0] }()
	for _, l := range latches {
		stack = append(stack, nl.Fanin(l)[0])
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen.Seen(id) || !nl.Kind(id).IsGate() || cut(id) {
			continue
		}
		seen.Visit(id)
		visit(id)
		stack = append(stack, nl.Fanin(id)...)
	}
}

// next returns the BDD of latch l's next-state function.
func (s *proof) next(l netlist.ID) bdd.Ref { return s.b.Build(s.nl.Fanin(l)[0]) }

// support returns the signals f depends on, other than drop.
func (s *proof) support(f bdd.Ref, drop ...netlist.ID) []netlist.ID {
	var out []netlist.ID
	for _, v := range s.m.Support(f) {
		if id := s.b.SignalOf(v); !slices.Contains(drop, id) {
			out = append(out, id)
		}
	}
	return out
}

// reset wraps f in an optional synchronous reset: ¬rst ∧ f.
func (s *proof) reset(rst netlist.ID, f bdd.Ref) bdd.Ref {
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
func (p *plan) planCounter(nl *netlist.Netlist, m *module.Module) *regBlock {
	q := m.Port("q")
	s := p.seqProof(nl, m, q)
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
func (p *plan) planShift(nl *netlist.Netlist, m *module.Module) []*regBlock {
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
	s := p.seqProof(nl, m, concat(lanes...))
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
		p.walkD(nl, rb.q, s.b.Leaf, add)
	}
	return out
}

// planRegister proves the Figure-7 multibit register, D = c_0 ? src_0 :
// (c_1 ? src_1 : … q), from its next-state functions. The conditions come
// from the cond port, outermost first. c is the next condition when every
// bit's D|c=1 is one signal, its source bit; D == ITE(c, src, D|c=0) then
// holds by Shannon expansion, and the proof goes on with D|c=0. The
// register is proven once every remaining level is the bit's own latch.
func (p *plan) planRegister(nl *netlist.Netlist, m *module.Module) *regBlock {
	q := m.Port("q")
	s := p.seqProof(nl, m, q)
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
			v, pos, ok := s.m.Literal(s.b.Build(c))
			if !ok {
				return false
			}
			src := make([]netlist.ID, len(q))
			rest := make([]bdd.Ref, len(q))
			for i, d := range level {
				sv, spos, ok := s.m.Literal(s.m.Restrict(d, v, pos))
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
