// Package fbscan is a design-specific inference pass in the spirit of the
// paper's BigSoC VGA framebuffer-read detector (Sections V-C.3 and
// VI-B.1): the analyst knows from the datasheet that a frame buffer with a
// row-selected wide-OR read structure is present, and extends the portfolio
// with an algorithm tailored to it.
//
// The structure detected here is an OR-AND read plane:
//
//	pixel_c = OR_r ( rowsel_r AND cell_{r,c} )
//
// where the row selects are one-hot (driven by a scan counter's decoder).
// The generic RAM analysis does not recognize this shape — its read trees
// are 2:1 mux based — which is exactly why the paper needed a
// design-specific algorithm for its VGA core. Planes smaller than 4 rows
// by 4 columns are not reported.
package fbscan

import (
	"fmt"
	"sort"

	"netlistre/internal/bdd"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
)

// minRows and minCols bound the smallest plane reported.
const minRows, minCols = 4, 4

// Find locates framebuffer read planes. The returned modules cover the
// storage cells, the AND gating plane and the OR reduction.
func Find(nl *netlist.Netlist) []*module.Module {
	// Step 1: collect candidate column outputs: Or gates whose fanins are
	// all And gates pairing one latch with one non-latch "select" signal.
	type column struct {
		root    netlist.ID
		selects []netlist.ID // per-row select, aligned with cells
		cells   []netlist.ID
		ands    []netlist.ID
	}
	var cols []column
	for id := netlist.ID(0); int(id) < nl.Len(); id++ {
		if nl.Kind(id) != netlist.Or {
			continue
		}
		fan := nl.Fanin(id)
		if len(fan) < minRows {
			continue
		}
		col := column{root: id}
		ok := true
		for _, f := range fan {
			if nl.Kind(f) != netlist.And || len(nl.Fanin(f)) != 2 {
				ok = false
				break
			}
			a, b := nl.Fanin(f)[0], nl.Fanin(f)[1]
			var cell, sel netlist.ID
			switch {
			case nl.Kind(a) == netlist.Latch && nl.Kind(b) != netlist.Latch:
				cell, sel = a, b
			case nl.Kind(b) == netlist.Latch && nl.Kind(a) != netlist.Latch:
				cell, sel = b, a
			default:
				ok = false
			}
			if !ok {
				break
			}
			col.cells = append(col.cells, cell)
			col.selects = append(col.selects, sel)
			col.ands = append(col.ands, f)
		}
		if ok {
			cols = append(cols, col)
		}
	}

	// Step 2: group columns by their (sorted) select set: columns of the
	// same plane share row selects.
	bySel := make(map[string][]column)
	for _, c := range cols {
		k := netlist.Key(netlist.SortedIDs(c.selects))
		bySel[k] = append(bySel[k], c)
	}
	var keys []string
	for k := range bySel {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var out []*module.Module
	for _, k := range keys {
		group := bySel[k]
		if len(group) < minCols {
			continue
		}
		if !oneHotSelects(nl, group[0].selects) {
			continue
		}
		var elements, reads []netlist.ID
		for _, c := range group {
			elements = append(elements, c.root)
			elements = append(elements, c.ands...)
			elements = append(elements, c.cells...)
			reads = append(reads, c.root)
		}
		// The select cone (decoder) belongs to the read structure too.
		selCone := nl.ConeOfAll(group[0].selects)
		elements = append(elements, selCone.Nodes...)

		m := module.New(module.RAM, len(group), elements)
		m.Name = fmt.Sprintf("framebuffer-read[%dx%d]", len(group[0].cells), len(group))
		m.SetAttr("kind", "or-and scan plane")
		m.SetPort("pixel", netlist.SortedIDs(reads))
		m.SetPort("rowsel", netlist.SortedIDs(group[0].selects))
		out = append(out, m)
	}
	return out
}

// oneHotSelects verifies with a BDD that at most one select is active at a
// time (the functional check that makes this an exclusive read, not an
// arbitrary OR plane).
func oneHotSelects(nl *netlist.Netlist, selects []netlist.ID) bool {
	mgr := bdd.New(0)
	bld := bdd.NewBuilder(mgr, nl)
	refs := make([]bdd.Ref, len(selects))
	err := mgr.Run(func() {
		for i, s := range selects {
			refs[i] = bld.Build(s)
		}
	})
	return err == nil && mgr.Exclusive(refs)
}
