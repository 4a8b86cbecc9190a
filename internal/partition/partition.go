// Package partition implements the reset-tree partitioning used to make
// BigSoC tractable (Section V-C.2): every latch is marked with the reset
// inputs found in its combinational fan-in cone, and each core's partition
// is the union of its latches and the gates of their cones. The package
// also extracts a partition into a standalone netlist so the inference
// portfolio can run per core.
package partition

import (
	"slices"

	"netlistre/internal/netlist"
)

// Partition is one reset domain.
type Partition struct {
	// Reset is the reset input anchoring the partition.
	Reset netlist.ID
	// Name is the reset input's name.
	Name string
	// Latches are the latches whose next-state cones read Reset.
	Latches []netlist.ID
	// Elements are the latches plus the gates of their cones.
	Elements []netlist.ID
}

// Summary reports the whole-design accounting of Table 5.
type Summary struct {
	Partitions []Partition
	// MultiOwned counts gates placed in more than one partition.
	MultiOwned int
	// Unowned counts gates in no partition (e.g. inter-core interconnect).
	Unowned int
}

// ByResets partitions nl by the given reset inputs.
func ByResets(nl *netlist.Netlist, resets []netlist.ID) Summary {
	owner := make(map[netlist.ID]map[netlist.ID]bool) // gate -> set of resets
	mark := func(g, r netlist.ID) {
		if owner[g] == nil {
			owner[g] = make(map[netlist.ID]bool)
		}
		owner[g][r] = true
	}

	isReset := make(map[netlist.ID]bool, len(resets))
	for _, r := range resets {
		isReset[r] = true
	}

	parts := make([]Partition, len(resets))
	for i, r := range resets {
		parts[i] = Partition{Reset: r, Name: nl.NameOf(r)}
	}
	residx := make(map[netlist.ID]int, len(resets))
	for i, r := range resets {
		residx[r] = i
	}

	for _, l := range nl.Latches() {
		cone := nl.ConeOf(nl.Fanin(l)[0])
		for _, in := range cone.Inputs {
			if !isReset[in] {
				continue
			}
			p := &parts[residx[in]]
			p.Latches = append(p.Latches, l)
			p.Elements = append(p.Elements, l)
			for _, g := range cone.Nodes {
				p.Elements = append(p.Elements, g)
				mark(g, in)
			}
		}
	}

	var s Summary
	for i := range parts {
		slices.Sort(parts[i].Elements)
		slices.Sort(parts[i].Latches)
		parts[i].Elements = slices.Compact(parts[i].Elements)
		parts[i].Latches = slices.Compact(parts[i].Latches)
	}
	s.Partitions = parts
	for _, g := range nl.Gates() {
		switch len(owner[g]) {
		case 0:
			s.Unowned++
		case 1:
		default:
			s.MultiOwned++
		}
	}
	return s
}

// Extract builds a standalone netlist from a partition's elements. Signals
// feeding the partition from outside become fresh primary inputs. It
// returns the sub-netlist and the mapping from original to extracted IDs.
func Extract(nl *netlist.Netlist, p Partition) (*netlist.Netlist, map[netlist.ID]netlist.ID) {
	inPart := make(map[netlist.ID]bool, len(p.Elements))
	for _, e := range p.Elements {
		inPart[e] = true
	}
	sub := netlist.New(nl.Name + "." + p.Name)
	m := make(map[netlist.ID]netlist.ID)

	var resolve func(id netlist.ID) netlist.ID
	var latchPatch []netlist.ID
	resolve = func(id netlist.ID) netlist.ID {
		if r, ok := m[id]; ok {
			return r
		}
		node := nl.Node(id)
		if !inPart[id] || node.Kind == netlist.Input {
			// Boundary: external signal becomes an input.
			r := sub.AddInput("ext_" + nl.NameOf(id))
			m[id] = r
			return r
		}
		switch node.Kind {
		case netlist.Latch:
			r := sub.AddLatch(sub.AddConst(false))
			m[id] = r
			latchPatch = append(latchPatch, id)
			return r
		case netlist.Const0, netlist.Const1:
			r := sub.AddConst(node.Kind == netlist.Const1)
			m[id] = r
			return r
		default:
			fan := make([]netlist.ID, len(node.Fanin))
			for i, f := range node.Fanin {
				fan[i] = resolve(f)
			}
			r := sub.AddGateLike(node, fan...)
			m[id] = r
			return r
		}
	}
	for _, e := range p.Elements {
		resolve(e)
	}
	// Latch D inputs: keep resolving until no new latches appear (a D cone
	// may pull in further partition latches).
	for i := 0; i < len(latchPatch); i++ {
		orig := latchPatch[i]
		sub.SetLatchD(m[orig], resolve(nl.Fanin(orig)[0]))
	}
	return sub, m
}
