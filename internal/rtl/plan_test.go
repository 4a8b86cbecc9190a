package rtl

import (
	"fmt"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
)

// handModule wraps every gate and latch of nl into a module of type typ
// with the given ports, bypassing the sequential analyses, so the planner's
// own proof is the only check a block passes.
func handModule(nl *netlist.Netlist, typ module.Type, ports map[string][]netlist.ID) *module.Module {
	var elements []netlist.ID
	for id := netlist.ID(0); int(id) < nl.Len(); id++ {
		if k := nl.Kind(id); k.IsGate() || k == netlist.Latch {
			elements = append(elements, id)
		}
	}
	m := module.New(typ, 0, elements) // the planners read ports, not Width
	for name, ids := range ports {
		m.SetPort(name, ids)
	}
	return m
}

// latchWord adds w latches whose D inputs the caller patches.
func latchWord(nl *netlist.Netlist, w int) []netlist.ID {
	q := make([]netlist.ID, w)
	for i := range q {
		q[i] = nl.AddLatch(nl.AddConst(false))
	}
	return q
}

// shiftLane patches q into a shift lane: q_i = ¬rst ∧ (en ? prev(i) : q_i).
func shiftLane(nl *netlist.Netlist, q []netlist.ID, en, rst netlist.ID, prev func(i int) netlist.ID) {
	nrst := nl.AddGate(netlist.Not, rst)
	for i := range q {
		nl.SetLatchD(q[i], nl.AddGate(netlist.And, nrst, gen.Mux2(nl, en, q[i], prev(i))))
	}
}

// TestSeqPlannersRejectNearMisses: each sequential planner proves its
// template itself. A block one gate away from the template is rejected,
// while the same builder without the defect is lowered.
func TestSeqPlannersRejectNearMisses(t *testing.T) {
	// counter: bit 2's toggle term leaves out q1 when broken.
	counter := func(broken bool) bool {
		nl := netlist.New("counter")
		en, rst := nl.AddInput("en"), nl.AddInput("rst")
		q := latchWord(nl, 4)
		nrst := nl.AddGate(netlist.Not, rst)
		for i := range q {
			lits := []netlist.ID{en}
			for j := 0; j < i; j++ {
				if !(broken && i == 2 && j == 1) {
					lits = append(lits, q[j])
				}
			}
			toggle := en
			if len(lits) > 1 {
				toggle = nl.AddGate(netlist.And, lits...)
			}
			nl.SetLatchD(q[i], nl.AddGate(netlist.And, nrst, nl.AddGate(netlist.Xor, q[i], toggle)))
		}
		m := handModule(nl, module.Counter, map[string][]netlist.ID{"q": q})
		m.SetAttr("direction", "up")
		return seqPlanner(nl).planCounter(nl, m) != nil
	}
	// shift: bit 2 loads q0 instead of q1 when broken.
	shift := func(broken bool) bool {
		nl := netlist.New("shift")
		en, rst, si := nl.AddInput("en"), nl.AddInput("rst"), nl.AddInput("si")
		q := latchWord(nl, 4)
		shiftLane(nl, q, en, rst, func(i int) netlist.ID {
			switch {
			case i == 0:
				return si
			case broken && i == 2:
				return q[0]
			}
			return q[i-1]
		})
		return seqPlanner(nl).planShift(nl, handModule(nl, module.ShiftRegister, map[string][]netlist.ID{"q0": q})) != nil
	}
	// register: bit 1's hold leg is bit 2's latch when broken.
	register := func(broken bool) bool {
		nl := netlist.New("register")
		d := gen.InputWord(nl, "d", 4)
		we := nl.AddInput("we")
		q := latchWord(nl, 4)
		for i := range q {
			hold := q[i]
			if broken && i == 1 {
				hold = q[2]
			}
			nl.SetLatchD(q[i], gen.Mux2(nl, we, hold, d[i]))
		}
		m := handModule(nl, module.MultibitRegister, map[string][]netlist.ID{"q": q, "cond": {we}})
		return seqPlanner(nl).planRegister(nl, m) != nil
	}
	// two shift lanes: the second lane shifts on its own enable when broken.
	lanes := func(broken bool) bool {
		nl := netlist.New("lanes")
		en0, en1, rst := nl.AddInput("en0"), nl.AddInput("en1"), nl.AddInput("rst")
		ports := map[string][]netlist.ID{}
		for l := 0; l < 2; l++ {
			en := en0
			if broken && l == 1 {
				en = en1
			}
			si := nl.AddInput(fmt.Sprintf("si%d", l))
			q := latchWord(nl, 4)
			shiftLane(nl, q, en, rst, func(i int) netlist.ID {
				if i == 0 {
					return si
				}
				return q[i-1]
			})
			ports[fmt.Sprintf("q%d", l)] = q
		}
		return seqPlanner(nl).planShift(nl, handModule(nl, module.ShiftRegister, ports)) != nil
	}
	for name, planned := range map[string]func(bool) bool{
		"counter": counter, "shift": shift, "register": register, "lanes": lanes,
	} {
		if !planned(false) {
			t.Errorf("%s: the intact block was not lowered", name)
		}
		if planned(true) {
			t.Errorf("%s: the near miss was lowered", name)
		}
	}
}

// seqPlanner returns an empty plan over nl with its scratch drawn, for
// calling a sequential planner directly.
func seqPlanner(nl *netlist.Netlist) *plan {
	p := newPlan(nl)
	p.drawScratch(nl)
	return p
}

// lowered reports whether the planner lowers m, resolved alone, to a
// template instance.
func lowered(nl *netlist.Netlist, m *module.Module) bool {
	return len(buildPlans(nl, &core.Report{Resolved: []*module.Module{m}}).instances) == 1
}

// TestCombPlannersRejectNearMisses: each combinational planner proves its
// template itself. A block one gate away from the template is rejected,
// and so is one whose output also reads a signal outside its ports (the
// leak cases), while
// the same builder without the defect is lowered.
func TestCombPlannersRejectNearMisses(t *testing.T) {
	// mux: bit 2's d0 term is gated by sel instead of ¬sel when broken.
	mux := func(broken bool) bool {
		nl := netlist.New("mux")
		sel := nl.AddInput("sel")
		d0, d1 := gen.InputWord(nl, "a", 4), gen.InputWord(nl, "b", 4)
		ns := nl.AddGate(netlist.Not, sel)
		out := make([]netlist.ID, 4)
		for i := range out {
			g := ns
			if broken && i == 2 {
				g = sel
			}
			out[i] = nl.AddGate(netlist.Or, nl.AddGate(netlist.And, sel, d1[i]), nl.AddGate(netlist.And, g, d0[i]))
		}
		return lowered(nl, handModule(nl, module.Mux, map[string][]netlist.ID{
			"sel": {sel}, "d0": d0, "d1": d1, "out": out,
		}))
	}
	// leak: bit 1's d1 term also reads the free input x when broken.
	leak := func(broken bool) bool {
		nl := netlist.New("leak")
		sel, x := nl.AddInput("sel"), nl.AddInput("x")
		d0, d1 := gen.InputWord(nl, "a", 4), gen.InputWord(nl, "b", 4)
		ns := nl.AddGate(netlist.Not, sel)
		out := make([]netlist.ID, 4)
		for i := range out {
			t := nl.AddGate(netlist.And, sel, d1[i])
			if broken && i == 1 {
				t = nl.AddGate(netlist.And, sel, d1[i], x)
			}
			out[i] = nl.AddGate(netlist.Or, t, nl.AddGate(netlist.And, ns, d0[i]))
		}
		return lowered(nl, handModule(nl, module.Mux, map[string][]netlist.ID{
			"sel": {sel}, "d0": d0, "d1": d1, "out": out,
		}))
	}
	// ripple builds a 4-bit ripple chain: a half slice, then full slices
	// whose carry-out is carry(a_i, b_i, c_{i-1}); slice 2 uses wrong.
	ripple := func(name string, carry, wrong func(nl *netlist.Netlist, a, b, c netlist.ID) netlist.ID, broken, swap bool) bool {
		nl := netlist.New(name)
		a, b := gen.InputWord(nl, "a", 4), gen.InputWord(nl, "b", 4)
		sum, couts := make([]netlist.ID, 4), make([]netlist.ID, 4)
		sum[0] = nl.AddGate(netlist.Xor, a[0], b[0])
		couts[0] = carry(nl, a[0], b[0], netlist.Nil)
		for i := 1; i < 4; i++ {
			sum[i] = nl.AddGate(netlist.Xor, a[i], b[i], couts[i-1])
			f := carry
			if broken && i == 2 {
				f = wrong
			}
			couts[i] = f(nl, a[i], b[i], couts[i-1])
		}
		typ := module.Adder
		if name == "sub" {
			typ = module.Subtractor
		}
		if swap {
			a, b = b, a
		}
		return lowered(nl, handModule(nl, typ, map[string][]netlist.ID{
			"sum": sum, "a": a, "b": b, "carry": couts,
		}))
	}
	// majority is the adder carry; with a Nil carry-in, the half carry.
	majority := func(nl *netlist.Netlist, a, b, c netlist.ID) netlist.ID {
		if c == netlist.Nil {
			return nl.AddGate(netlist.And, a, b)
		}
		return nl.AddGate(netlist.Or, nl.AddGate(netlist.And, a, b), nl.AddGate(netlist.And, a, c), nl.AddGate(netlist.And, b, c))
	}
	// borrow is the subtractor's borrow-out of a - b.
	borrow := func(nl *netlist.Netlist, a, b, c netlist.ID) netlist.ID {
		na := nl.AddGate(netlist.Not, a)
		if c == netlist.Nil {
			return nl.AddGate(netlist.And, na, b)
		}
		return nl.AddGate(netlist.Or, nl.AddGate(netlist.And, na, b), nl.AddGate(netlist.And, na, c), nl.AddGate(netlist.And, b, c))
	}
	// dropBC is the majority without its b∧c term.
	dropBC := func(nl *netlist.Netlist, a, b, c netlist.ID) netlist.ID {
		return nl.AddGate(netlist.Or, nl.AddGate(netlist.And, a, b), nl.AddGate(netlist.And, a, c))
	}
	// decoder: a 2-to-4 decoder whose output 3 is an OR when broken, or,
	// with leak, also reads the free input x.
	decoder := func(activeLow, leak bool) func(bool) bool {
		return func(broken bool) bool {
			nl := netlist.New("decoder")
			in := gen.InputWord(nl, "s", 2)
			x := nl.AddInput("x")
			lits := [2][2]netlist.ID{}
			for j := range in {
				lits[j] = [2]netlist.ID{nl.AddGate(netlist.Not, in[j]), in[j]}
			}
			and, or := netlist.And, netlist.Or
			if activeLow {
				and, or = netlist.Nand, netlist.Nor
			}
			out := make([]netlist.ID, 4)
			for mt := range out {
				k, fanin := and, []netlist.ID{lits[0][mt&1], lits[1][mt>>1]}
				if broken && mt == 3 {
					if leak {
						fanin = append(fanin, x)
					} else {
						k = or
					}
				}
				out[mt] = nl.AddGate(k, fanin...)
			}
			m := handModule(nl, module.Decoder, map[string][]netlist.ID{"in": in, "out": out})
			if activeLow {
				m.SetAttr("polarity", "active-low")
			}
			return lowered(nl, m)
		}
	}
	// parity: x1 feeds the tree twice and cancels; one xor is an or when
	// broken.
	parity := func(broken bool) bool {
		nl := netlist.New("parity")
		x := gen.InputWord(nl, "x", 4)
		in := []netlist.ID{x[0], x[1], x[2], x[1], x[3]}
		last := netlist.Xor
		if broken {
			last = netlist.Or
		}
		l := nl.AddGate(netlist.Xor, in[0], in[1])
		r := nl.AddGate(netlist.Xor, in[2], in[3])
		out := nl.AddGate(last, nl.AddGate(netlist.Xor, l, r), in[4])
		return lowered(nl, handModule(nl, module.ParityTree, map[string][]netlist.ID{"in": in, "out": {out}}))
	}
	// popcount: a 3-input counter whose count bit 1 drops a term when
	// broken.
	popcount := func(broken bool) bool {
		nl := netlist.New("popcount")
		x := gen.InputWord(nl, "x", 3)
		c0 := nl.AddGate(netlist.Xor, x[0], x[1], x[2])
		c1 := majority(nl, x[0], x[1], x[2])
		if broken {
			c1 = dropBC(nl, x[0], x[1], x[2])
		}
		return lowered(nl, handModule(nl, module.PopCount, map[string][]netlist.ID{"in": x, "count": {c0, c1}}))
	}
	for name, planned := range map[string]func(bool) bool{
		"mux":  mux,
		"leak": leak,
		"adder": func(broken bool) bool {
			return ripple("adder", majority, dropBC, broken, false)
		},
		"sub": func(broken bool) bool {
			return ripple("sub", borrow, majority, broken, false)
		},
		"sub-swapped": func(broken bool) bool {
			return ripple("sub", borrow, majority, broken, true)
		},
		"decoder":           decoder(false, false),
		"decoder-activelow": decoder(true, false),
		"decoder-leak":      decoder(false, true),
		"parity":            parity,
		"popcount":          popcount,
	} {
		if !planned(false) {
			t.Errorf("%s: the intact block was not lowered", name)
		}
		if planned(true) {
			t.Errorf("%s: the near miss was lowered", name)
		}
	}
}
