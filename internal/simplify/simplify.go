// Package simplify implements the structural logic simplification used to
// scale the analysis to BigSoC (Section V-C.1): buffer and delay-chain
// elimination, paired-inverter removal, and merging of structurally
// equivalent gates (structural hashing). The paper reports a 55% reduction
// in combinational elements on BigSoC from this pass alone.
package simplify

import (
	"encoding/binary"
	"slices"

	"netlistre/internal/netlist"
)

// Result pairs the simplified netlist with the old-to-new node mapping.
type Result struct {
	Netlist *netlist.Netlist
	// NodeMap is indexed by original node ID: element id is the node of the
	// simplified netlist that computes original node id's value, or
	// netlist.Nil when that node was swept as dead logic.
	NodeMap []netlist.ID
	// RemovedGates counts original combinational gates that were folded
	// away.
	RemovedGates int
}

// Run simplifies nl structurally. The transformation is semantics
// preserving: every original signal maps to a simplified node computing the
// same function of the same inputs and latches.
//
// Folding runs over flat node-indexed tables, the dead-logic sweep over the
// folded tables, and the output netlist is built once from the survivors.
func Run(nl *netlist.Netlist) Result {
	f, rep := fold(nl)
	live, n, named := f.sweep(nl, rep)
	out := netlist.New(nl.Name)
	out.Grow(n, named)
	newID := f.build(out, nl, live)
	for _, p := range nl.Outputs() {
		out.MarkOutput(p.Name, newID[rep[p.Driver]])
	}
	nodeMap := rep // rewritten in place: rep is not read again
	for id, r := range rep {
		nodeMap[id] = newID[r]
	}
	return Result{
		Netlist:      out,
		NodeMap:      nodeMap,
		RemovedGates: nl.Stats().Gates - out.Stats().Gates,
	}
}

// folded is a netlist after buffer elimination, inverter pairing and
// structural hashing, held as flat node-indexed columns. Nodes are appended
// in the original's topological order, so every gate's fanins have smaller
// IDs; only a latch's D, patched once every node exists, may point forward.
// That makes ID order a topological order of the folded netlist, and
// building the survivors in ID order gives the IDs a rebuild of a folded
// netlist.Netlist would.
type folded struct {
	kind []netlist.Kind
	mask []uint64
	off  []int32 // node i's fanins are fan[off[i]:off[i+1]]
	fan  []netlist.ID
	// orig is the original input or latch a node stands for (its name and,
	// for a latch, its D), else Nil.
	orig []netlist.ID
	// notOf[x] is the Not gate over x and srcOfNot[n] the fanin of Not gate
	// n, or Nil.
	notOf, srcOfNot []netlist.ID
	latches         []netlist.ID
	// placeholder is the constant latches were once created on before their
	// D was patched. It stays a node of the output, just before the first
	// latch.
	placeholder netlist.ID
}

func (f *folded) add(kind netlist.Kind, mask uint64, orig netlist.ID, fan ...netlist.ID) netlist.ID {
	id := netlist.ID(len(f.kind))
	f.kind = append(f.kind, kind)
	f.mask = append(f.mask, mask)
	f.fan = append(f.fan, fan...)
	f.off = append(f.off, int32(len(f.fan)))
	f.orig = append(f.orig, orig)
	f.notOf = append(f.notOf, netlist.Nil)
	f.srcOfNot = append(f.srcOfNot, netlist.Nil)
	return id
}

func (f *folded) fanin(id netlist.ID) []netlist.ID { return f.fan[f.off[id]:f.off[id+1]] }

// fold folds nl in topological order. It returns the folded netlist and
// rep, which maps every original node to its folded representative.
func fold(nl *netlist.Netlist) (*folded, []netlist.ID) {
	f := &folded{off: []int32{0}, placeholder: netlist.Nil}
	rep := make([]netlist.ID, nl.Len())
	hash := make(map[string]netlist.ID)
	var fan []netlist.ID
	var key []byte
	for _, id := range nl.TopoOrder() {
		node := nl.Node(id)
		switch node.Kind {
		case netlist.Input:
			rep[id] = f.add(netlist.Input, 0, id)
		case netlist.Latch:
			if f.placeholder == netlist.Nil {
				f.placeholder = f.add(netlist.Const0, 0, netlist.Nil)
			}
			rep[id] = f.add(netlist.Latch, 0, id, netlist.Nil) // D patched below
			f.latches = append(f.latches, rep[id])
		case netlist.Buf:
			rep[id] = rep[node.Fanin[0]]
		case netlist.Not:
			child := rep[node.Fanin[0]]
			switch {
			case f.srcOfNot[child] != netlist.Nil:
				rep[id] = f.srcOfNot[child] // paired inverter
			case f.notOf[child] != netlist.Nil:
				rep[id] = f.notOf[child] // structurally shared inverter
			default:
				n := f.add(netlist.Not, 0, netlist.Nil, child)
				f.notOf[child], f.srcOfNot[n] = n, child
				rep[id] = n
			}
		default: // constants, symmetric gates and LUTs
			fan = fan[:0]
			for _, x := range node.Fanin {
				fan = append(fan, rep[x])
			}
			// The key is the kind, a LUT's mask and the fanins: in
			// argument order for a LUT, which is not symmetric in them,
			// sorted for symmetric gates.
			if node.Kind != netlist.Lut {
				slices.Sort(fan)
			}
			key = append(key[:0], byte(node.Kind))
			if node.Kind == netlist.Lut {
				key = binary.LittleEndian.AppendUint64(key, node.Mask)
			}
			for _, x := range fan {
				key = binary.LittleEndian.AppendUint32(key, uint32(x))
			}
			r, ok := hash[string(key)]
			if !ok {
				r = f.add(node.Kind, node.Mask, netlist.Nil, fan...)
				hash[string(key)] = r
			}
			rep[id] = r
		}
	}
	for _, l := range f.latches {
		f.fan[f.off[l]] = rep[nl.Fanin(f.orig[l])[0]]
	}
	return f, rep
}

// sweep marks the folded nodes to keep and counts them and the inputs and
// latches among them, the nodes that may carry a name. Paired-inverter
// collapsing can orphan the inner inverter (it was consumed only by the
// now-bypassed outer one), so only nodes reachable from the primary outputs
// (through rep), the latches with their D cones and the inputs (they define
// the interface) survive, together with the latch placeholder.
func (f *folded) sweep(nl *netlist.Netlist, rep []netlist.ID) (live []bool, n, named int) {
	live = make([]bool, len(f.kind))
	for i, k := range f.kind {
		switch k {
		case netlist.Input:
			live[i] = true
			named++
		case netlist.Latch:
			live[i] = true
			named++
			live[f.fanin(netlist.ID(i))[0]] = true // D may point forward
		}
	}
	if f.placeholder != netlist.Nil {
		live[f.placeholder] = true
	}
	for _, p := range nl.Outputs() {
		live[rep[p.Driver]] = true
	}
	// Every other edge points to a smaller ID, so one descending scan
	// reaches the whole cone.
	for i := len(live) - 1; i >= 0; i-- {
		if live[i] {
			n++
			for _, x := range f.fanin(netlist.ID(i)) {
				live[x] = true
			}
		}
	}
	return live, n, named
}

// build adds the live folded nodes to out in ID order and wires the latches.
// It returns the folded-to-output map, Nil for a swept node.
func (f *folded) build(out, nl *netlist.Netlist, live []bool) []netlist.ID {
	newID := make([]netlist.ID, len(f.kind))
	var fan []netlist.ID
	for i, k := range f.kind {
		if !live[i] {
			newID[i] = netlist.Nil
			continue
		}
		switch k {
		case netlist.Input:
			newID[i] = out.AddInput(nl.NameOf(f.orig[i]))
		case netlist.Latch:
			newID[i] = out.AddLatch(netlist.Nil) // D set below, once
			if name := nl.Node(f.orig[i]).Name; name != "" {
				out.SetName(newID[i], name)
			}
		case netlist.Const0, netlist.Const1:
			newID[i] = out.AddConst(k == netlist.Const1)
		default:
			fan = fan[:0]
			for _, x := range f.fanin(netlist.ID(i)) {
				fan = append(fan, newID[x])
			}
			if k == netlist.Lut {
				newID[i] = out.AddLut(f.mask[i], fan...)
			} else {
				newID[i] = out.AddGate(k, fan...)
			}
		}
	}
	for _, l := range f.latches {
		out.SetLatchD(newID[l], newID[f.fanin(l)[0]])
	}
	return newID
}
