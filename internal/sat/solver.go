// Package sat implements a CDCL (conflict-driven clause learning)
// satisfiability solver and a Tseitin encoder for netlist cones. It stands
// in for MiniSat in the paper's counter/shift-register verification and
// QBF-based module matching: all uses are plain (un)satisfiability queries
// on miter-style formulas, optionally under assumptions.
//
// Encoder is the one netlist-to-CNF translation: it holds the per-kind gate
// and LUT clauses for every caller. LitOf keeps one shared encoding of each
// node; LitOfFixed adds a fresh copy of a cone with some boundary signals
// fixed, for cofactor comparisons and 2QBF counterexample refinements.
//
// The solver implements two-literal watching, VSIDS-style activity
// heuristics with phase saving, first-UIP clause learning and Luby
// restarts. Learnt clauses are kept for the life of the solver: the
// instances produced by the analyses in this repository are small, so
// clause-database reduction would add risk for no measurable benefit.
package sat

import "fmt"

// Lit is a literal: variable v as a positive literal is 2v, negated is
// 2v+1. The zero Lit is "variable 0, positive".
type Lit int32

// MkLit builds a literal from a variable index and sign (neg=true for the
// negated literal).
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return l ^ 1 }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("~x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// Status is a solve result.
type Status int8

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

type clause struct {
	lits     []Lit
	learnt   bool
	activity float64
}

// watcher pairs a clause index with a blocker literal for fast skips.
type watcher struct {
	cref    int32
	blocker Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses []clause
	watches [][]watcher // indexed by literal

	assign []lbool // indexed by var
	level  []int32
	reason []int32 // clause index or -1
	phase  []bool  // saved phases
	trail  []Lit
	lim    []int32 // decision level boundaries in trail
	qhead  int
	ok     bool // false once the instance is trivially unsat

	model     []lbool
	activity  []float64
	varInc    float64
	heapIdx   []int32 // position of var in heap, -1 when absent
	heap      []int32 // max-heap on activity
	claInc    float64
	seen      []bool
	conflicts int64

	// MaxConflicts aborts Solve with Unknown when positive and exceeded.
	MaxConflicts int64
	// Interrupt, when non-nil, is polled periodically during search (at
	// restart boundaries and every interruptCheckMask+1 conflicts); when
	// it returns true, Solve aborts with Unknown. The nil check is free,
	// so an unbudgeted solve pays nothing.
	Interrupt func() bool
}

// interruptCheckMask spaces out Interrupt polls: the callback typically
// reads a context or an atomic flag, which must not show up in the
// per-conflict profile.
const interruptCheckMask = 255

const (
	varDecay    = 1.0 / 0.95
	clauseDecay = 1.0 / 0.999
	rescaleAt   = 1e100
)

// New returns an empty solver.
func New() *Solver {
	return &Solver{ok: true, varInc: 1, claInc: 1}
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.phase = append(s.phase, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.heapIdx = append(s.heapIdx, -1)
	s.heapInsert(int32(v))
	return v
}

func (s *Solver) value(l Lit) lbool {
	v := s.assign[l.Var()]
	if l.Sign() {
		return -v
	}
	return v
}

// AddClause adds a clause over existing variables. It returns false if the
// solver became trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if len(s.lim) != 0 {
		panic("sat: AddClause at non-root decision level")
	}
	// Normalize: drop duplicate/false literals, detect tautology/satisfied.
	norm := lits[:0:0]
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return true // already satisfied at root
		case lFalse:
			continue
		}
		dup, taut := false, false
		for _, k := range norm {
			if k == l {
				dup = true
				break
			}
			if k == l.Neg() {
				taut = true
				break
			}
		}
		if taut {
			return true
		}
		if !dup {
			norm = append(norm, l)
		}
	}
	switch len(norm) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(norm[0], -1) {
			s.ok = false
			return false
		}
		if s.propagate() != -1 {
			s.ok = false
			return false
		}
		return true
	}
	s.attachClause(norm, false)
	return true
}

func (s *Solver) attachClause(lits []Lit, learnt bool) int32 {
	cref := int32(len(s.clauses))
	s.clauses = append(s.clauses, clause{lits: lits, learnt: learnt, activity: s.claInc})
	s.watches[lits[0].Neg()] = append(s.watches[lits[0].Neg()], watcher{cref, lits[1]})
	s.watches[lits[1].Neg()] = append(s.watches[lits[1].Neg()], watcher{cref, lits[0]})
	return cref
}

func (s *Solver) enqueue(l Lit, from int32) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Sign() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = int32(len(s.lim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; it returns the index of a
// conflicting clause or -1.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		conflict := int32(-1)
	nextWatcher:
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := &s.clauses[w.cref]
			// Ensure the false literal (p.Neg()) is at position 1.
			if c.lits[0] == p.Neg() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{w.cref, first})
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Neg()] = append(s.watches[c.lits[1].Neg()], watcher{w.cref, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			kept = append(kept, w)
			if s.value(first) == lFalse {
				conflict = w.cref
				// Copy remaining watchers and stop.
				kept = append(kept, ws[wi+1:]...)
				s.qhead = len(s.trail)
				break
			}
			if !s.enqueue(first, w.cref) {
				panic("sat: enqueue of unit failed unexpectedly")
			}
		}
		s.watches[p] = kept
		if conflict != -1 {
			return conflict
		}
	}
	return -1
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.lim)) }

func (s *Solver) newDecisionLevel() {
	s.lim = append(s.lim, int32(len(s.trail)))
}

func (s *Solver) cancelUntil(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= int(s.lim[lvl]); i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = -1
		if s.heapIdx[v] == -1 {
			s.heapInsert(int32(v))
		}
	}
	s.trail = s.trail[:s.lim[lvl]]
	s.lim = s.lim[:lvl]
	s.qhead = len(s.trail)
}

// analyze performs first-UIP conflict analysis, returning the learnt clause
// (with the asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl int32) ([]Lit, int32) {
	learnt := []Lit{0} // placeholder for asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		c := &s.clauses[confl]
		if c.learnt {
			s.bumpClause(confl)
		}
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal to expand from the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Neg()

	// Compute backtrack level (second highest level in clause).
	bt := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.level[learnt[1].Var()]
	}
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}
	return learnt, bt
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > rescaleAt {
		for i := range s.activity {
			s.activity[i] *= 1 / rescaleAt
		}
		s.varInc *= 1 / rescaleAt
	}
	if s.heapIdx[v] != -1 {
		s.heapUp(s.heapIdx[v])
	}
}

func (s *Solver) bumpClause(c int32) {
	s.clauses[c].activity += s.claInc
	if s.clauses[c].activity > rescaleAt {
		for i := range s.clauses {
			if s.clauses[i].learnt {
				s.clauses[i].activity *= 1 / rescaleAt
			}
		}
		s.claInc *= 1 / rescaleAt
	}
}

// Solve determines satisfiability under the given assumptions. The model is
// available via Value after Sat.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	defer s.cancelUntil(0)

	restarts := 0
	for {
		if s.Interrupt != nil && s.Interrupt() {
			return Unknown
		}
		limit := int64(100) * int64(luby(restarts+1))
		st := s.search(limit, assumptions)
		if st != Unknown {
			return st
		}
		restarts++
		if s.MaxConflicts > 0 && s.conflicts >= s.MaxConflicts {
			return Unknown
		}
	}
}

// search runs CDCL until a result, a conflict budget exhaustion (Unknown),
// or an assumption failure (Unsat).
func (s *Solver) search(budget int64, assumptions []Lit) Status {
	var conflictsHere int64
	for {
		confl := s.propagate()
		if confl != -1 {
			s.conflicts++
			conflictsHere++
			if s.decisionLevel() <= int32(len(assumptions)) {
				// Conflict within assumption levels: unsat under
				// assumptions. (Level 0 conflict is globally unsat.)
				if s.decisionLevel() == 0 {
					s.ok = false
				}
				return Unsat
			}
			learnt, bt := s.analyze(confl)
			if bt < int32(len(assumptions)) {
				bt = int32(len(assumptions))
			}
			s.cancelUntil(bt)
			if len(learnt) == 1 {
				// Asserting unit: must hold at the assumption level; if it
				// conflicts there the next propagate reports it.
				if !s.enqueue(learnt[0], -1) {
					return Unsat
				}
			} else {
				cref := s.attachClause(learnt, true)
				if !s.enqueue(learnt[0], cref) {
					return Unsat
				}
			}
			s.varInc *= varDecay
			s.claInc *= clauseDecay
			if s.conflicts&interruptCheckMask == 0 && s.Interrupt != nil && s.Interrupt() {
				s.cancelUntil(0)
				return Unknown
			}
			if conflictsHere >= budget {
				s.cancelUntil(int32(len(assumptions)))
				// Keep assumption levels? Simpler: restart from root.
				s.cancelUntil(0)
				return Unknown
			}
			continue
		}

		// Place assumptions as successive decision levels.
		if int(s.decisionLevel()) < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				s.newDecisionLevel() // already implied; dummy level
				continue
			case lFalse:
				return Unsat
			}
			s.newDecisionLevel()
			if !s.enqueue(a, -1) {
				return Unsat
			}
			continue
		}

		// Decide.
		v := s.pickBranchVar()
		if v == -1 {
			// Capture the model before Solve backtracks to root.
			s.model = append(s.model[:0], s.assign...)
			return Sat
		}
		s.newDecisionLevel()
		if !s.enqueue(MkLit(v, !s.phase[v]), -1) {
			panic("sat: decision enqueue failed")
		}
	}
}

func (s *Solver) pickBranchVar() int {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[v] == lUndef {
			return int(v)
		}
	}
	return -1
}

// Value returns the model value of variable v from the most recent Sat
// result.
func (s *Solver) Value(v int) bool { return v < len(s.model) && s.model[v] == lTrue }

// luby returns the i-th element (1-based) of the Luby sequence.
func luby(i int) int {
	// Find the finite subsequence containing i.
	k := 1
	for (1<<uint(k))-1 < i {
		k++
	}
	for {
		if (1<<uint(k))-1 == i {
			return 1 << uint(k-1)
		}
		i -= (1 << uint(k-1)) - 1
		k = 1
		for (1<<uint(k))-1 < i {
			k++
		}
	}
}

// --- activity heap (max-heap keyed by activity) ---

func (s *Solver) heapLess(a, b int32) bool { return s.activity[a] > s.activity[b] }

func (s *Solver) heapInsert(v int32) {
	s.heapIdx[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(int32(len(s.heap) - 1))
}

func (s *Solver) heapUp(i int32) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapIdx[s.heap[i]] = i
		i = p
	}
	s.heap[i] = v
	s.heapIdx[v] = i
}

func (s *Solver) heapPop() int32 {
	top := s.heap[0]
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	s.heapIdx[top] = -1
	if len(s.heap) > 0 {
		s.heapDown(0, last)
	}
	return top
}

func (s *Solver) heapDown(i int32, v int32) {
	n := int32(len(s.heap))
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && s.heapLess(s.heap[r], s.heap[l]) {
			best = r
		}
		if !s.heapLess(s.heap[best], v) {
			break
		}
		s.heap[i] = s.heap[best]
		s.heapIdx[s.heap[i]] = i
		i = best
	}
	s.heap[i] = v
	s.heapIdx[v] = i
}
