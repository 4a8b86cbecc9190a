// Package module defines the shared representation of inferred modules: the
// output of every inference algorithm in the portfolio and the input of
// overlap resolution (Section IV) and reporting.
package module

import (
	"fmt"
	"slices"

	"netlistre/internal/netlist"
)

// Type classifies an inferred module.
type Type uint8

// Inferred module types, mirroring the columns of Table 3 in the paper.
const (
	Unknown    Type = iota
	Mux             // multibit multiplexer (common-select aggregation)
	Decoder         // BDD-verified decoder (common-support analysis)
	Demux           // BDD-verified demultiplexer
	PopCount        // BDD-verified population counter
	Adder           // carry-chain aggregation
	Subtractor      // borrow-chain aggregation
	ParityTree      // xor-tree aggregation
	Counter         // LCG topology + SAT/BDD verification
	ShiftRegister
	RAM // register file / RAM array with read & write logic
	MultibitRegister
	WordOp    // QBF-matched word-level operator (add, sub, boolean, shift)
	Gating    // word-wide gating function (common-control and/or slices)
	Fused     // post-processing fusion of compatible modules
	Candidate // unknown bitslice aggregation offered to the analyst
	numTypes
)

var typeNames = [numTypes]string{
	"unknown", "mux", "decoder", "demux", "popcount", "adder", "subtractor",
	"parity-tree", "counter", "shift-register", "ram", "multibit-register",
	"word-op", "gating", "fused", "candidate",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return "type(?)"
}

// Module is one inferred high-level component. Elements are the netlist
// nodes (gates and latches) the module covers; coverage accounting and
// overlap resolution operate on this set.
type Module struct {
	Type Type
	// Name is a short human-readable description, e.g. "adder[8]".
	Name string
	// Width is the bit width (number of slices, latches, or outputs,
	// whichever is the natural size measure for the type).
	Width int
	// Elements lists all covered nodes, sorted ascending, without
	// duplicates.
	Elements []netlist.ID
	// Slices optionally partitions part of Elements into per-bit slices
	// for the sliceable ILP formulation. Elements not in any slice are
	// shared among slices (the x_{i0} bucket of Section IV-B.1).
	Slices [][]netlist.ID
	// Ports names the interface words of the module (inputs, outputs,
	// selects) for reporting and downstream analyses.
	Ports map[string][]netlist.ID
	// Attr carries free-form details (e.g. the QBF-matched operation).
	Attr map[string]string
}

// New constructs a module with a deduplicated, sorted element set.
func New(t Type, width int, elements []netlist.ID) *Module {
	m := &Module{Type: t, Width: width}
	m.SetElements(elements)
	m.Name = fmt.Sprintf("%s[%d]", t, width)
	return m
}

// SetElements replaces the element set with a sorted, deduplicated copy
// of elements.
func (m *Module) SetElements(elements []netlist.ID) {
	out := slices.Clone(elements)
	slices.Sort(out)
	m.Elements = slices.Compact(out)
}

// Size returns the number of covered elements.
func (m *Module) Size() int { return len(m.Elements) }

// Sliceable reports whether the module carries a slice decomposition.
func (m *Module) Sliceable() bool { return len(m.Slices) > 0 }

// SetPort records a named port word.
func (m *Module) SetPort(name string, ids []netlist.ID) {
	if m.Ports == nil {
		m.Ports = make(map[string][]netlist.ID)
	}
	m.Ports[name] = append([]netlist.ID(nil), ids...)
}

// Port returns a named port word (nil when absent).
func (m *Module) Port(name string) []netlist.ID { return m.Ports[name] }

// SetAttr records a free-form attribute.
func (m *Module) SetAttr(key, value string) {
	if m.Attr == nil {
		m.Attr = make(map[string]string)
	}
	m.Attr[key] = value
}

// SharedElements returns the elements not assigned to any slice (meaningful
// only for sliceable modules).
func (m *Module) SharedElements() []netlist.ID {
	if !m.Sliceable() {
		return nil
	}
	inSlice := make(map[netlist.ID]int)
	for si, s := range m.Slices {
		for _, e := range s {
			if prev, ok := inSlice[e]; ok && prev != si {
				inSlice[e] = -1 // in multiple slices: shared
			} else {
				inSlice[e] = si
			}
		}
	}
	var shared []netlist.ID
	for _, e := range m.Elements {
		si, ok := inSlice[e]
		if !ok || si == -1 {
			shared = append(shared, e)
		}
	}
	return shared
}

// CoverageCount returns the number of distinct elements covered by the
// given set of modules.
func CoverageCount(mods []*Module) int {
	seen := make(map[netlist.ID]bool)
	for _, m := range mods {
		for _, e := range m.Elements {
			seen[e] = true
		}
	}
	return len(seen)
}

// Disjoint reports whether no element is covered by two modules, returning
// the first offending element otherwise.
func Disjoint(mods []*Module) (netlist.ID, bool) {
	seen := make(map[netlist.ID]bool)
	for _, m := range mods {
		for _, e := range m.Elements {
			if seen[e] {
				return e, false
			}
			seen[e] = true
		}
	}
	return netlist.Nil, true
}

// CountByType tallies modules per type for Table 3-style reporting.
func CountByType(mods []*Module) map[Type]int {
	out := make(map[Type]int)
	for _, m := range mods {
		out[m.Type]++
	}
	return out
}
