package seq

// Multibit register identification (Section III-D, Figure 7): an
// aggregated multiplexer (or a cascade of them) drives the D inputs of a
// latch word, and one leg of the cascade is the latch word itself (the
// hold path). The detection walks mux modules produced by common-select
// aggregation.

import (
	"fmt"

	"netlistre/internal/module"
	"netlistre/internal/netlist"
)

// FindMultibitRegisters inspects aggregated mux modules: a mux whose
// outputs feed latch D inputs anchors a candidate; the hold path is traced
// backwards through cascaded mux modules until it reaches the latch word
// itself.
func FindMultibitRegisters(nl *netlist.Netlist, muxes []*module.Module) []*module.Module {
	// Index mux modules by their output word for cascade walking.
	outKey := func(w []netlist.ID) string { return netlist.Key(netlist.SortedIDs(w)) }
	byOut := make(map[string]*module.Module)
	for _, m := range muxes {
		if m.Type != module.Mux {
			continue
		}
		if o := m.Port("out"); len(o) >= 2 {
			byOut[outKey(o)] = m
		}
	}

	var out []*module.Module
	for _, m := range muxes {
		if m.Type != module.Mux {
			continue
		}
		outs := m.Port("out")
		if len(outs) < 2 {
			continue
		}
		// Each output must drive exactly the D input of a latch (possibly
		// through a buffer).
		latches := make([]netlist.ID, len(outs))
		ok := true
		for i, o := range outs {
			l := drivenLatch(nl, o)
			if l == netlist.Nil {
				ok = false
				break
			}
			latches[i] = l
		}
		if !ok {
			continue
		}

		// Walk the hold path: one data leg must eventually be the latch
		// word, possibly through cascaded muxes (Figure 7 chains the hold
		// value through each condition mux).
		latchKey := outKey(latches)
		cascade := []*module.Module{m}
		var conds []netlist.ID
		cur := m
		found := false
		for depth := 0; depth < 8; depth++ {
			conds = append(conds, cur.Port("sel")...)
			d0, d1 := cur.Port("d0"), cur.Port("d1")
			if outKey(d0) == latchKey || outKey(d1) == latchKey {
				found = true
				break
			}
			var next *module.Module
			for _, leg := range [][]netlist.ID{d0, d1} {
				if n, okNext := byOut[outKey(leg)]; okNext && n != cur {
					next = n
					break
				}
			}
			if next == nil {
				break
			}
			cascade = append(cascade, next)
			cur = next
		}
		if !found {
			continue
		}

		var elements []netlist.ID
		for _, c := range cascade {
			elements = append(elements, c.Elements...)
		}
		elements = append(elements, latches...)
		reg := module.New(module.MultibitRegister, len(latches), elements)
		reg.Name = fmt.Sprintf("multibit-register[%d]", len(latches))
		reg.SetPort("q", latches)
		// cond keeps the walk's order: outermost condition first.
		reg.SetPort("cond", firstSeen(conds))
		reg.SetAttr("sources", fmt.Sprint(len(cascade)))
		out = append(out, reg)
	}
	return out
}

// drivenLatch returns the latch whose D input is driven by node o (possibly
// via a chain of buffers), or Nil.
func drivenLatch(nl *netlist.Netlist, o netlist.ID) netlist.ID {
	for _, fo := range nl.Fanout(o) {
		switch {
		case nl.Kind(fo) == netlist.Latch && nl.Fanin(fo)[0] == o:
			return fo
		case nl.Kind(fo) == netlist.Buf:
			if l := drivenLatch(nl, fo); l != netlist.Nil {
				return l
			}
		}
	}
	return netlist.Nil
}

// OrderRegisterBits implements footnote 15 of the paper: the multibit
// register analysis cannot determine bit ordering by itself, but seeding
// symbolic word propagation with ORDERED words (e.g. adder outputs, whose
// order the carry chain fixes) and checking which register the propagated
// word lands on recovers the order. For every register whose latch set is
// exactly the latches driven by an ordered word's bits, the q port is
// reordered to match and the module is marked.
func OrderRegisterBits(nl *netlist.Netlist, regs []*module.Module, orderedWords [][]netlist.ID) {
	for _, reg := range regs {
		if reg.Type != module.MultibitRegister {
			continue
		}
		q := reg.Port("q")
		qset := make(map[netlist.ID]bool, len(q))
		for _, l := range q {
			qset[l] = true
		}
		for _, w := range orderedWords {
			if len(w) != len(q) {
				continue
			}
			ordered := make([]netlist.ID, len(w))
			ok := true
			for i, b := range w {
				l := drivenLatch(nl, b)
				if l == netlist.Nil || !qset[l] {
					ok = false
					break
				}
				ordered[i] = l
			}
			if !ok {
				continue
			}
			// Every driven latch must be distinct (a bijection onto q).
			seen := make(map[netlist.ID]bool, len(ordered))
			for _, l := range ordered {
				if seen[l] {
					ok = false
					break
				}
				seen[l] = true
			}
			if !ok {
				continue
			}
			reg.SetPort("q", ordered)
			reg.SetAttr("bit-order", "inferred")
			break
		}
	}
}
