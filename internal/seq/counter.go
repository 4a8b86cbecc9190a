// Package seq implements the sequential-component analyses of Section III:
// counters (III-A), shift registers (III-B), RAMs/register files (III-C)
// and multibit registers (III-D). Each analysis pairs a topological
// candidate generator (over the latch connection graph or aggregated
// modules) with a functional verification (SAT cofactor checks or BDD
// propagation checks). Counter candidates that a concrete bit-parallel
// simulation witness refutes skip the solver; only SAT accepts a counter.
// The size bounds are constants: counters and shift registers of at least
// 3 bits, RAM reads over at most 8 select signals.
package seq

import (
	"fmt"
	"math/rand"
	"slices"

	"netlistre/internal/bitsim"
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
	var cone bitsim.Cone // recompiled for each chain's witness
	for _, chain := range lcg.CounterChains(minCounter) {
		w := newCounterWitness(nl, chain, &cone)
		for _, down := range []bool{false, true} {
			verified := bestVerifiedSubchain(nl, chain, down, minCounter, w)
			if len(verified) < minCounter {
				continue
			}
			k := netlist.Key(netlist.SortedIDs(verified))
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
// subchain. Each subchain is first tried against w, the chain's
// simulation witness: a refuted subchain is one verifyCounter would reject,
// so only the rest reach the solver, and only SAT accepts.
func bestVerifiedSubchain(nl *netlist.Netlist, chain []netlist.ID, down bool, minLen int, w *counterWitness) []netlist.ID {
	for n := len(chain); n >= minLen; n-- {
		for start := 0; start+n <= len(chain); start++ {
			if w.refutes(start, n, down) {
				continue
			}
			if verifyCounter(nl, chain[start:start+n], down) {
				return chain[start : start+n]
			}
		}
	}
	return nil
}

// counterWitness refutes counter subchains of one LCG chain by concrete
// simulation. The fan-in cone of the chain's D inputs is compiled once, into
// the Cone FindCounters recompiles from chain to chain, with every cone
// input forced to 64 pseudo-random lanes, so each independent-lane
// evaluation is plain two-valued simulation of 64 assignments: no lane is
// ever X. A cofactor is the D input of one chain latch with a cube of chain
// latches forced to constants. Cofactors are memoized, since subchains and
// directions share them.
type counterWitness struct {
	chain []netlist.ID
	cone  *bitsim.Cone
	// lanes[i] is chain[i]'s random lanes, restored after each cofactor;
	// Unknown() when chain[i] is outside the cone.
	lanes []bitsim.Vector
	memo  map[cofactorKey]uint64
}

// cofactorKey names the cofactor of D(chain[bit]) under the cube that
// forces chain[start..bit-1] to level and chain[bit] to q.
type cofactorKey struct {
	start, bit int
	level, q   bool
}

func newCounterWitness(nl *netlist.Netlist, chain []netlist.ID, cone *bitsim.Cone) *counterWitness {
	roots := make([]netlist.ID, len(chain))
	for i, l := range chain {
		roots[i] = nl.Fanin(l)[0]
	}
	w := &counterWitness{
		chain: chain,
		cone:  cone.Compile(nl, roots, nil),
		lanes: make([]bitsim.Vector, len(chain)),
		memo:  make(map[cofactorKey]uint64),
	}
	// Deterministically seeded per chain and drawn over the cone inputs in
	// ascending ID order; a witness only ever rejects a subchain
	// verifyCounter would reject, so the seed never changes results.
	rng := rand.New(rand.NewSource(0xc0c0<<20 ^ int64(chain[0])<<8 ^ int64(len(chain))))
	inputs := w.cone.Leaves()
	drawn := make([]bitsim.Vector, len(inputs))
	for i, in := range inputs {
		drawn[i] = bitsim.Known(rng.Uint64())
		w.cone.Force(in, drawn[i])
	}
	for i, l := range chain {
		w.lanes[i] = bitsim.Unknown()
		if j, ok := slices.BinarySearch(inputs, l); ok {
			w.lanes[i] = drawn[j]
		}
	}
	return w
}

// cofactor returns the lanes of D(chain[bit]) with chain[start..bit-1]
// forced to level and chain[bit] to q; the other cone inputs keep their
// random lanes.
func (w *counterWitness) cofactor(start, bit int, level, q bool) uint64 {
	if start == bit {
		level = false // the cube has no lower bits
	}
	k := cofactorKey{start, bit, level, q}
	if v, ok := w.memo[k]; ok {
		return v
	}
	constant := func(b bool) bitsim.Vector {
		if b {
			return bitsim.Known(^uint64(0))
		}
		return bitsim.Known(0)
	}
	for j := start; j < bit; j++ {
		w.cone.Force(w.chain[j], constant(level))
	}
	w.cone.Force(w.chain[bit], constant(q))
	v := w.cone.Eval()[bit].Val
	for j := start; j <= bit; j++ {
		w.cone.Force(w.chain[j], w.lanes[j])
	}
	w.memo[k] = v
	return v
}

// refutes reports whether some lane is a model of one of verifyCounter's f
// or g miters for the subchain chain[start:start+n]: a lane where f_i
// differs from f_0 (or g_i from g_0). The SAT call on that miter would
// then return Sat, or Unknown on budget, and verifyCounter rejects the
// subchain either way, so a true result never changes a verdict.
func (w *counterWitness) refutes(start, n int, down bool) bool {
	level := !down
	f0 := w.cofactor(start, start, level, false)
	g0 := w.cofactor(start, start, level, true)
	for i := 1; i < n; i++ {
		if w.cofactor(start, start+i, level, false) != f0 || w.cofactor(start, start+i, level, true) != g0 {
			return true
		}
	}
	return false
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
//
// verifyCounter is the only way a counter is accepted. bestVerifiedSubchain
// calls it only for subchains that counterWitness could not refute by
// simulation, and a refutation is a concrete model of one of the f/g
// miters below, so skipping the call never changes a verdict.
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
