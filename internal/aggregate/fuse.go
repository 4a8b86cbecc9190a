package aggregate

// Module fusion post-processing (Section II-F): compatible adjacent modules
// are fused into larger ones — mux layers into n:1 muxes, decoders feeding
// mux selects into routing structures. Fused modules are ADDED to the
// collection; the constituents are kept, and overlap resolution (Section
// IV) decides which representation survives.

import (
	"fmt"
	"slices"

	"netlistre/internal/module"
	"netlistre/internal/netlist"
)

// compatible reports whether a module of type a may fuse into a consumer of
// type b.
func compatible(a, b module.Type) bool {
	switch {
	case a == module.Mux && b == module.Mux:
		return true
	case a == module.Decoder && b == module.Mux:
		return true
	}
	return false
}

// Fuse builds the module fusion graph and returns one fused module per
// connected component with at least two members.
func Fuse(mods []*module.Module) []*module.Module {
	// readers holds pack(net, module) for each net a module reads on an
	// input or select port (any port but "out"), sorted: the modules that
	// read a net are one ascending run.
	var readers []uint64
	for i, m := range mods {
		for name, port := range m.Ports {
			if name == "out" {
				continue
			}
			for _, n := range port {
				readers = append(readers, pack(n, netlist.ID(i)))
			}
		}
	}
	slices.Sort(readers)
	readers = slices.Compact(readers)
	readersOf := func(n netlist.ID) []uint64 {
		lo, _ := slices.BinarySearch(readers, pack(n, 0))
		hi, _ := slices.BinarySearch(readers, pack(n+1, 0))
		return readers[lo:hi]
	}
	reads := func(j int, n netlist.ID) bool {
		_, ok := slices.BinarySearch(readers, pack(n, netlist.ID(j)))
		return ok
	}

	uf := newUnionFind(len(mods))
	for ai, a := range mods {
		outs := a.Port("out")
		var next []int
		for _, o := range outs {
			for _, r := range readersOf(o) {
				next = append(next, int(uint32(r)))
			}
		}
		slices.Sort(next)
		for _, bi := range slices.Compact(next) {
			b := mods[bi]
			if ai == bi || !compatible(a.Type, b.Type) {
				continue
			}
			var connected bool
			if a.Type == module.Decoder && b.Type == module.Mux {
				// A decoder fans its one-hot outputs across SEVERAL muxes'
				// selects; any select hit links the pair (the component
				// gathers the rest of the routing structure).
				connected = slices.ContainsFunc(outs, func(o netlist.ID) bool {
					return slices.Contains(b.Port("sel"), o)
				})
			} else {
				// Mux layers fuse only when one layer's outputs are fully
				// consumed by the next (a genuine tree stage).
				connected = !slices.ContainsFunc(outs, func(o netlist.ID) bool { return !reads(bi, o) })
			}
			if connected {
				uf.union(ai, bi)
			}
		}
	}

	var out []*module.Module
	for _, members := range uf.components(2) {
		root := uf.find(members[0])
		var elements []netlist.ID
		width := 0
		muxCount := 0
		hasDecoder := false
		for _, mi := range members {
			elements = append(elements, mods[mi].Elements...)
			switch mods[mi].Type {
			case module.Mux:
				muxCount++
				width = max(width, mods[mi].Width)
			case module.Decoder:
				hasDecoder = true
			}
		}
		fused := module.New(module.Fused, width, elements)
		switch {
		case hasDecoder:
			fused.Name = fmt.Sprintf("routing[%d]", width)
			fused.SetAttr("kind", "decoder+mux routing structure")
		default:
			fused.Name = fmt.Sprintf("mux%d:1[%d]", muxCount+1, width)
			fused.SetAttr("kind", "fused mux tree")
		}
		// The fused outputs are the member outputs that are not consumed
		// by another member.
		var outs []netlist.ID
		for _, mi := range members {
			for _, o := range mods[mi].Port("out") {
				consumed := slices.ContainsFunc(readersOf(o), func(r uint64) bool {
					mj := int(uint32(r))
					return mj != mi && uf.find(mj) == root
				})
				if !consumed {
					outs = append(outs, o)
				}
			}
		}
		fused.SetPort("out", netlist.SortedIDs(outs))
		fused.SetAttr("members", fmt.Sprint(len(members)))
		out = append(out, fused)
	}
	return out
}
