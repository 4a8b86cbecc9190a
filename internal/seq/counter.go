// Package seq implements the sequential-component analyses of Section III:
// counters (III-A), shift registers (III-B), RAMs/register files (III-C)
// and multibit registers (III-D). Each analysis pairs a topological
// candidate generator (over the latch connection graph or aggregated
// modules) with a functional verification (SAT cofactor checks or BDD
// propagation checks). The size bounds are constants: counters and shift
// registers of at least 3 bits, RAM reads over at most 8 select signals.
package seq

import (
	"fmt"

	"netlistre/internal/graph"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/sat"
)

const (
	// minCounter is the smallest counter accepted (bits).
	minCounter = 3
	// minShift is the smallest shift register accepted (stages).
	minShift = 3
	// maxSelectVars bounds the select-space enumeration in the RAM read
	// check.
	maxSelectVars = 8
)

// verifyConflictBudget bounds each SAT query in the counter and
// shift-register checks; a genuine counter/shifter verifies in a handful of
// conflicts, so exceeding the budget (result Unknown) safely rejects the
// candidate instead of stalling on a pathological cone.
const verifyConflictBudget = 200_000

// FindCounters generates counter candidates from the LCG topology (Figure
// 5) and verifies them with the SAT cofactor formulation of Section
// III-A.2. Both up and down counters are detected.
func FindCounters(nl *netlist.Netlist, lcg *graph.LCG) []*module.Module {
	var out []*module.Module
	seen := make(map[string]bool)
	for _, chain := range lcg.CounterChains(minCounter) {
		for _, down := range []bool{false, true} {
			verified := bestVerifiedSubchain(nl, chain, down, minCounter)
			if len(verified) < minCounter {
				continue
			}
			k := idKeySeq(netlist.SortedIDs(verified))
			if seen[k] {
				break
			}
			seen[k] = true
			m := counterModule(nl, verified, down)
			out = append(out, m)
			break
		}
	}
	return out
}

// bestVerifiedSubchain returns the longest contiguous subchain passing the
// counter checks (at least minLen, else nil). Searching subchains — not
// just prefixes — matters because the topological chain can be contaminated
// at its head: a latch that happens to feed every true counter bit (e.g. a
// mode register gating the counter's enable) satisfies the Figure 5
// topology and gets prepended, and the true counter is then a proper
// subchain.
func bestVerifiedSubchain(nl *netlist.Netlist, chain []netlist.ID, down bool, minLen int) []netlist.ID {
	for n := len(chain); n >= minLen; n-- {
		for start := 0; start+n <= len(chain); start++ {
			if verifyCounter(nl, chain[start:start+n], down) {
				return chain[start : start+n]
			}
		}
	}
	return nil
}

// verifyCounter checks Equation 2 of the paper: the cofactors f_i, g_i and
// h_i of every bit's next-state function must be pairwise equivalent,
// which enforces (i) the toggle condition and (ii) shared reset/set/enable
// functions across the bits.
//
// The f and g cofactors fix a cube over the chain latches, implemented by
// encoding a fresh copy of the cone with those latches replaced by
// constants (sat.Encoder.LitOfFixed). The h check has a non-cube condition
// (some lower bit differs from the toggle level while q_i holds), so it is
// phrased as an implication: condition ∧ (d_i ≠ h_ref) must be UNSAT.
func verifyCounter(nl *netlist.Netlist, chain []netlist.ID, down bool) bool {
	s := sat.New()
	s.MaxConflicts = verifyConflictBudget
	e := sat.NewEncoder(s, nl)
	lowerLevel := !down // up counters toggle when lower bits are all 1

	dOf := func(i int) netlist.ID { return nl.Fanin(chain[i])[0] }
	cube := func(i int, qi bool) map[netlist.ID]bool {
		m := make(map[netlist.ID]bool, i+1)
		for j := 0; j < i; j++ {
			m[chain[j]] = lowerLevel
		}
		m[chain[i]] = qi
		return m
	}

	refF := e.LitOfFixed(dOf(0), cube(0, false))
	refG := e.LitOfFixed(dOf(0), cube(0, true))
	// Bit 0 sanity: toggling must actually be possible and distinguish the
	// two cofactors from constants equal to q_i (otherwise any latch with
	// a self-loop "verifies").
	// There must be some control assignment with f=1 (bit rises) and g=0
	// (bit toggles back), i.e. the counter can actually count.
	if s.Solve(refF, refG.Neg()) != sat.Sat {
		return false
	}

	for i := 1; i < len(chain); i++ {
		fi := e.LitOfFixed(dOf(i), cube(i, false))
		if s.Solve(e.NotEqualWitness(fi, refF)) != sat.Unsat {
			return false
		}
		gi := e.LitOfFixed(dOf(i), cube(i, true))
		if s.Solve(e.NotEqualWitness(gi, refG)) != sat.Unsat {
			return false
		}
	}

	// h checks (hold when a lower bit is off the toggle level): reference
	// is h_1 whose condition is a cube.
	if len(chain) >= 2 {
		hc := map[netlist.ID]bool{chain[0]: !lowerLevel, chain[1]: true}
		refH := e.LitOfFixed(dOf(1), hc)
		for i := 1; i < len(chain); i++ {
			di := e.LitOf(dOf(i)) // free encoding over the latch variables
			mit := e.NotEqualWitness(di, refH)
			// Activation clause: some lower bit != lowerLevel.
			act := sat.MkLit(s.NewVar(), false)
			lits := []sat.Lit{act.Neg()}
			for j := 0; j < i; j++ {
				lits = append(lits, sat.MkLit(e.LitOf(chain[j]).Var(), lowerLevel))
			}
			s.AddClause(lits...)
			qi := sat.MkLit(e.LitOf(chain[i]).Var(), false)
			if s.Solve(act, qi, mit) != sat.Unsat {
				return false
			}
		}
	}
	return true
}

// counterModule assembles the module for a verified counter: the latches
// plus the gates of their next-state cones that feed nothing outside the
// counter.
func counterModule(nl *netlist.Netlist, chain []netlist.ID, down bool) *module.Module {
	elements := exclusiveConeElements(nl, chain)
	m := module.New(module.Counter, len(chain), elements)
	dir := "up"
	if down {
		dir = "down"
	}
	m.Name = fmt.Sprintf("counter[%d]", len(chain))
	m.SetAttr("direction", dir)
	m.SetPort("q", chain)
	return m
}

// exclusiveConeElements returns the given latches plus the D-cone gates
// whose every fanout stays inside the cone or feeds one of the latches.
// This keeps shared upstream logic (e.g. a comparator that also feeds other
// subsystems) out of the module.
func exclusiveConeElements(nl *netlist.Netlist, latches []netlist.ID) []netlist.ID {
	var roots []netlist.ID
	isLatch := make(map[netlist.ID]bool, len(latches))
	for _, l := range latches {
		isLatch[l] = true
		roots = append(roots, nl.Fanin(l)[0])
	}
	cone := nl.ConeOfAll(roots)
	inCone := make(map[netlist.ID]bool, len(cone.Nodes))
	for _, n := range cone.Nodes {
		inCone[n] = true
	}
	// Iteratively drop gates with fanout escaping the cone (their
	// downstream consumers prove they are shared logic).
	changed := true
	for changed {
		changed = false
		for n := range inCone {
			for _, fo := range nl.Fanout(n) {
				if inCone[fo] || isLatch[fo] {
					continue
				}
				delete(inCone, n)
				changed = true
				break
			}
		}
	}
	// Keep only gates all of whose consumers survive too (transitive
	// closure is handled by the fixed point above).
	elements := append([]netlist.ID(nil), latches...)
	for n := range inCone {
		elements = append(elements, n)
	}
	return elements
}
