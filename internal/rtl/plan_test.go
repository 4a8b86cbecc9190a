package rtl

import (
	"fmt"
	"testing"

	"netlistre/internal/bdd"
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
		return planCounter(bdd.New(0), nl, m) != nil
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
		return planShift(bdd.New(0), nl, handModule(nl, module.ShiftRegister, map[string][]netlist.ID{"q0": q})) != nil
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
		return planRegister(bdd.New(0), nl, m) != nil
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
		return planShift(bdd.New(0), nl, handModule(nl, module.ShiftRegister, ports)) != nil
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
