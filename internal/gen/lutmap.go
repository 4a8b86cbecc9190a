package gen

// LutMapped rewrites a gate-level netlist into the FPGA-style LUT-mapped
// equivalent an off-the-shelf technology mapper would hand the analysis:
// every combinational gate becomes a k-input truth-table cell. The mapping
// is deliberately simple and deterministic — one gate, one LUT, with wide
// gates decomposed into balanced same-op trees — because the workload's
// point is that structural gate identities disappear (an AND and a NOR are
// both just masks) while the functional analysis still recovers the same
// modules.
//
// Mapping policy:
//   - Inputs, constants, and latches copy unchanged.
//   - Buf stays Buf. A Buf's single-cube BLIF cover ("1 1") is byte-identical
//     to the Lut1 identity cover, so keeping Buf native makes the
//     Verilog/BLIF round trip unambiguous; it also matches real mappers,
//     which never spend a LUT on a wire.
//   - Not becomes a 1-input LUT (mask 0b01).
//   - Every other gate with <= MaxLutInputs fanins becomes one LUT whose
//     mask tabulates the gate.
//   - Wider gates decompose into chunks of MaxLutInputs combined with the
//     gate's base (non-inverting) op, with the original op — including its
//     inversion, for Nand/Nor/Xnor — applied at the tree root.

import (
	"netlistre/internal/netlist"
	"netlistre/internal/truth"
)

// gateMask tabulates gate kind k over all 2^n fanin rows in one word pass:
// fanin i carries the projection pattern of variable i, so lane r evaluates
// row r.
func gateMask(k netlist.Kind, n int) uint64 {
	in := make([]uint64, n)
	for i := range in {
		in[i] = truth.Var(i, truth.MaxVars).Bits
	}
	return netlist.EvalWord(k, 0, in) & truth.Mask(n)
}

// baseOp returns the non-inverting reduction op for a gate kind.
func baseOp(k netlist.Kind) netlist.Kind {
	switch k {
	case netlist.Nand:
		return netlist.And
	case netlist.Nor:
		return netlist.Or
	case netlist.Xnor:
		return netlist.Xor
	}
	return k
}

// LutMapped returns a LUT-mapped copy of src plus the node image map for
// Labels.Remap: each original node maps to the new nodes that realize it
// (several for decomposed wide gates, with the cone output last). The
// transform is purely structural and deterministic; node names, output
// names, and latch feedback are preserved.
func LutMapped(src *netlist.Netlist) (*netlist.Netlist, map[netlist.ID][]netlist.ID) {
	out := netlist.New(src.Name + "_lut")
	img := make(map[netlist.ID][]netlist.ID, src.Len())
	newOf := make([]netlist.ID, src.Len())
	var anyID netlist.ID = netlist.Nil
	for id := netlist.ID(0); int(id) < src.Len(); id++ {
		node := src.Node(id)
		var created []netlist.ID
		switch k := node.Kind; {
		case k == netlist.Input:
			created = []netlist.ID{out.AddInput(node.Name)}
		case k == netlist.Const0 || k == netlist.Const1:
			nid := out.AddConst(k == netlist.Const1)
			if node.Name != "" && out.Node(nid).Name == "" {
				out.SetName(nid, node.Name)
			}
			created = []netlist.ID{nid}
		case k == netlist.Latch:
			// D may reference a later node; patch it in the second pass.
			ph := anyID
			if f := node.Fanin[0]; f < id {
				ph = newOf[f]
			}
			created = []netlist.ID{out.AddLatch(ph)}
		case k == netlist.Buf:
			created = []netlist.ID{out.AddGate(netlist.Buf, newOf[node.Fanin[0]])}
		case k == netlist.Lut:
			// Already mapped: the transform is idempotent.
			fan := mappedFanin(newOf, node.Fanin)
			created = []netlist.ID{out.AddLut(node.Mask, fan...)}
		case k == netlist.Not:
			created = []netlist.ID{out.AddLut(1, newOf[node.Fanin[0]])}
		default:
			created = mapWideGate(out, k, mappedFanin(newOf, node.Fanin))
		}
		nid := created[len(created)-1]
		if node.Name != "" && node.Kind != netlist.Input && node.Kind != netlist.Const0 &&
			node.Kind != netlist.Const1 {
			out.SetName(nid, node.Name)
		}
		newOf[id] = nid
		img[id] = created
		if anyID == netlist.Nil {
			anyID = nid
		}
	}
	for _, l := range src.Latches() {
		out.SetLatchD(newOf[l], newOf[src.Fanin(l)[0]])
	}
	for _, o := range src.Outputs() {
		out.MarkOutput(o.Name, newOf[o.Driver])
	}
	return out, img
}

func mappedFanin(newOf []netlist.ID, fanin []netlist.ID) []netlist.ID {
	fan := make([]netlist.ID, len(fanin))
	for i, f := range fanin {
		fan[i] = newOf[f]
	}
	return fan
}

// mapWideGate lowers one gate to LUTs, decomposing fanins beyond
// MaxLutInputs into a balanced tree of base-op chunks with the original op
// (inversion included) at the root. Returns every created node, output last.
func mapWideGate(out *netlist.Netlist, k netlist.Kind, fan []netlist.ID) []netlist.ID {
	var created []netlist.ID
	base := baseOp(k)
	for len(fan) > netlist.MaxLutInputs {
		var next []netlist.ID
		for i := 0; i < len(fan); i += netlist.MaxLutInputs {
			end := i + netlist.MaxLutInputs
			if end > len(fan) {
				end = len(fan)
			}
			chunk := fan[i:end]
			if len(chunk) == 1 {
				next = append(next, chunk[0])
				continue
			}
			g := out.AddLut(gateMask(base, len(chunk)), chunk...)
			created = append(created, g)
			next = append(next, g)
		}
		fan = next
	}
	root := out.AddLut(gateMask(k, len(fan)), fan...)
	return append(created, root)
}

// LutMappedLabeled builds the named base article, LUT-maps it, and remaps
// its ground-truth labels through the node image map.
func LutMappedLabeled(build func() (*netlist.Netlist, *Labels)) (*netlist.Netlist, *Labels) {
	nl, lab := build()
	mapped, img := LutMapped(nl)
	rl := lab.Remap(func(id netlist.ID) []netlist.ID { return img[id] })
	rl.Design = mapped.Name
	return mapped, rl
}
