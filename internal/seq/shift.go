package seq

// Shift-register identification (Section III-B): SPLCG chain candidates
// verified by the cofactor check of Equation 3, then aggregated into
// multibit shift registers by length and shared set/reset/enable functions
// (Section III-B.3).

import (
	"fmt"

	"netlistre/internal/graph"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/sat"
)

// FindShiftRegisters generates chain candidates from the SPLCG and verifies
// each with the SAT cofactor formulation, then aggregates compatible chains
// into multibit shift registers.
func FindShiftRegisters(nl *netlist.Netlist, lcg *graph.LCG) []*module.Module {
	var verified [][]netlist.ID
	for _, chain := range lcg.ShiftChains(minShift) {
		if v := verifyShiftPrefix(nl, chain, minShift); v != nil {
			verified = append(verified, v)
		}
	}
	groups := aggregateShiftChains(nl, verified)
	var out []*module.Module
	for _, g := range groups {
		out = append(out, shiftModule(nl, g))
	}
	return out
}

func verifyShiftPrefix(nl *netlist.Netlist, chain []netlist.ID, minLen int) []netlist.ID {
	for n := len(chain); n >= minLen; n-- {
		if verifyShift(nl, chain[:n]) {
			return chain[:n]
		}
	}
	return nil
}

// verifyShift checks Equation 3: for every stage i >= 1,
//
//	f_i = cofactor(d_i, q_{i-1}=1, q_i=0) = ¬r∧e ∨ s
//	g_i = cofactor(d_i, q_{i-1}=0, q_i=1) = ¬r∧¬e ∨ s
//
// and the f_i (resp. g_i) must be identical across the stages, which
// enforces shared reset/set/enable. The first stage has no predecessor
// inside the chain (its input is the serial-in), so it anchors nothing.
func verifyShift(nl *netlist.Netlist, chain []netlist.ID) bool {
	if len(chain) < 2 {
		return false
	}
	s := sat.New()
	s.MaxConflicts = verifyConflictBudget
	e := sat.NewEncoder(s, nl)
	dOf := func(i int) netlist.ID { return nl.Fanin(chain[i])[0] }

	refF := e.LitOfFixed(dOf(1), map[netlist.ID]bool{chain[0]: true, chain[1]: false})
	refG := e.LitOfFixed(dOf(1), map[netlist.ID]bool{chain[0]: false, chain[1]: true})
	// Sanity: the register must be able to shift (f=1: loads the 1 from
	// the predecessor) while not spuriously holding (g=0 under the same
	// control assignment).
	if s.Solve(refF, refG.Neg()) != sat.Sat {
		return false
	}
	for i := 2; i < len(chain); i++ {
		fi := e.LitOfFixed(dOf(i), map[netlist.ID]bool{chain[i-1]: true, chain[i]: false})
		if s.Solve(e.NotEqualWitness(fi, refF)) != sat.Unsat {
			return false
		}
		gi := e.LitOfFixed(dOf(i), map[netlist.ID]bool{chain[i-1]: false, chain[i]: true})
		if s.Solve(e.NotEqualWitness(gi, refG)) != sat.Unsat {
			return false
		}
	}
	return true
}

// aggregateShiftChains groups verified chains by length and equivalent
// control functions: chains whose f and g cofactors are pairwise equal
// shift in tandem and form one multibit shift register (Section III-B.3).
func aggregateShiftChains(nl *netlist.Netlist, chains [][]netlist.ID) [][][]netlist.ID {
	byLen := make(map[int][][]netlist.ID)
	for _, c := range chains {
		byLen[len(c)] = append(byLen[len(c)], c)
	}
	var lengths []int
	for l := range byLen {
		lengths = append(lengths, l)
	}
	for i := 1; i < len(lengths); i++ {
		for j := i; j > 0 && lengths[j] < lengths[j-1]; j-- {
			lengths[j], lengths[j-1] = lengths[j-1], lengths[j]
		}
	}
	var groups [][][]netlist.ID
	for _, l := range lengths {
		set := byLen[l]
		used := make([]bool, len(set))
		for i := range set {
			if used[i] {
				continue
			}
			group := [][]netlist.ID{set[i]}
			used[i] = true
			for j := i + 1; j < len(set); j++ {
				if used[j] {
					continue
				}
				if sameShiftControls(nl, set[i], set[j]) {
					group = append(group, set[j])
					used[j] = true
				}
			}
			groups = append(groups, group)
		}
	}
	return groups
}

// sameShiftControls checks that two chains share set/reset/enable by
// comparing their second-stage cofactors.
func sameShiftControls(nl *netlist.Netlist, a, b []netlist.ID) bool {
	s := sat.New()
	s.MaxConflicts = verifyConflictBudget
	e := sat.NewEncoder(s, nl)
	fa := e.LitOfFixed(nl.Fanin(a[1])[0], map[netlist.ID]bool{a[0]: true, a[1]: false})
	fb := e.LitOfFixed(nl.Fanin(b[1])[0], map[netlist.ID]bool{b[0]: true, b[1]: false})
	if s.Solve(e.NotEqualWitness(fa, fb)) != sat.Unsat {
		return false
	}
	ga := e.LitOfFixed(nl.Fanin(a[1])[0], map[netlist.ID]bool{a[0]: false, a[1]: true})
	gb := e.LitOfFixed(nl.Fanin(b[1])[0], map[netlist.ID]bool{b[0]: false, b[1]: true})
	return s.Solve(e.NotEqualWitness(ga, gb)) == sat.Unsat
}

func shiftModule(nl *netlist.Netlist, group [][]netlist.ID) *module.Module {
	var latches []netlist.ID
	for _, chain := range group {
		latches = append(latches, chain...)
	}
	elements := exclusiveConeElements(nl, latches)
	m := module.New(module.ShiftRegister, len(group[0]), elements)
	if len(group) > 1 {
		m.Name = fmt.Sprintf("shift-register[%dx%d]", len(group), len(group[0]))
	} else {
		m.Name = fmt.Sprintf("shift-register[%d]", len(group[0]))
	}
	m.SetAttr("lanes", fmt.Sprint(len(group)))
	for i, chain := range group {
		m.SetPort(fmt.Sprintf("q%d", i), chain)
	}
	return m
}
