// Package rtl is the hardware decompilation backend: it lowers a
// core.Report plus its netlist into word-level Verilog and proves the
// result equivalent to the input.
//
// Emit turns every resolved module the planner can verify into either an
// instantiation of a reference-library template module (adders, muxes,
// decoders, parity trees, population counters) or an always-block over a
// vector register (counters, shift registers, multibit registers), with
// the module's port words flattened to buses. A resolved RAM has no
// template: it is lowered through its verified parts, the modules the
// analysis inferred inside it (decoder, read muxes, word registers), each
// planned and checked like a resolved module, so what one layer verified
// is not lost because overlap resolution preferred the RAM. Recovered
// words become documentation vector wires. Every gate the planner cannot
// verify — or that the analysis never resolved — is passed through
// verbatim as residual structural logic, so the emitted file is always a
// complete, self-contained design.
//
// Check re-reads the emitted text through a bounded structural elaborator
// (Elaborate) that expands template instances and always blocks back to
// gates, then proves the expansion equal to the original netlist with
// BDDs cut at the emission's named nets: every output and latch
// next-state is proved, refuted, or left unknown when its proof outgrows
// the node limit. The verdict is machine-readable (EquivResult) so CLIs
// and services can gate on it.
//
// Emission is deterministic: all ordering and naming decisions key on net
// names, never raw node IDs, so the output is byte-identical across
// worker counts and across Verilog/BLIF input serializations of the same
// design.
package rtl

import (
	"fmt"

	"netlistre/internal/core"
	"netlistre/internal/netlist"
)

// EmitStats summarizes what one emission lowered.
type EmitStats struct {
	// Instances counts reference-library template instantiations.
	Instances int `json:"instances"`
	// AlwaysBlocks counts sequential always @(posedge clk) blocks.
	AlwaysBlocks int `json:"always_blocks"`
	// ResidualGates / ResidualLatches count nodes passed through as
	// structural logic because no verified template covered them.
	ResidualGates   int `json:"residual_gates"`
	ResidualLatches int `json:"residual_latches"`
	// CoveredElements counts original nodes replaced by templates.
	CoveredElements int `json:"covered_elements"`
	// Words counts recovered word declarations.
	Words int `json:"words"`
}

// EmitResult is the outcome of lowering one report.
type EmitResult struct {
	// Verilog is the emitted word-level RTL.
	Verilog []byte
	Stats   EmitStats

	names    []string // NameOf by node ID, "" for hidden nodes
	lineOf   []int32  // LineOf by node ID
	design   string   // emitted (legalized) module name
	outNames []string // emitted output port names, Outputs() order
}

// NameOf returns the emitted identifier of a visible original node
// (inputs, residual nodes, template outputs, and the per-bit aliases of
// sequential template registers), or "" for a node with no name of its
// own in the emission.
func (r *EmitResult) NameOf(id netlist.ID) string {
	if id < 0 || int(id) >= len(r.names) {
		return ""
	}
	return r.names[id]
}

// LineOf returns the 1-based line of the emitted construct that carries
// the given original node — its declaration for inputs, its statement for
// residual logic, and the instance or always line for nodes a template
// covers. It returns 0 for nodes with no emitted span.
func (r *EmitResult) LineOf(id netlist.ID) int {
	if id < 0 || int(id) >= len(r.lineOf) {
		return 0
	}
	return int(r.lineOf[id])
}

// EquivResult is the machine-readable verdict of the round-trip check.
// Each compared signal (a primary output or a latch next-state) is
// proved, refuted, or unknown when its proof outgrew the BDD node limit;
// an unknown signal is never counted as either answer.
type EquivResult struct {
	// Equivalent holds only when every compared signal is proved.
	Equivalent bool   `json:"equivalent"`
	Method     string `json:"method"` // always "bdd"
	Proved     int    `json:"proved"`
	Refuted    int    `json:"refuted"`
	Unknown    int    `json:"unknown"`
	// Mismatches lists up to a handful of differing or undecided signals.
	Mismatches []string `json:"mismatches,omitempty"`
}

// Decompile emits RTL for the report and self-checks it in one call.
func Decompile(nl *netlist.Netlist, rep *core.Report) (*EmitResult, *EquivResult, error) {
	er, err := Emit(nl, rep)
	if err != nil {
		return nil, nil, err
	}
	eq, err := Check(nl, er)
	if err != nil {
		return er, nil, err
	}
	return er, eq, nil
}

// String renders the verdict for logs.
func (e *EquivResult) String() string {
	state := "NOT EQUIVALENT"
	if e.Equivalent {
		state = "equivalent"
	}
	return fmt.Sprintf("%s (%s, %d proved, %d refuted, %d unknown)",
		state, e.Method, e.Proved, e.Refuted, e.Unknown)
}
