// Package ilp implements an exact solver for 0-1 integer linear programs,
// standing in for CPLEX in the paper's overlap-resolution step (Section IV).
//
// The instances produced by overlap resolution have a characteristic shape:
// binary variables (one per module or slice), packing rows (Σ x_i ≤ 1, one
// per multiply-covered netlist element), slice-linking rows, and optionally
// a single covering row (Σ S_i·x_i ≥ C_t). The solver is a branch-and-bound
// search with unit propagation over the rows, a clique-partition bound that
// exploits the packing rows, and a greedy warm start. It is exact: when it
// reports Optimal, the solution maximizes (or minimizes) the objective.
//
// A search node costs time in the assignments it makes and the rows they
// touch, not in the problem size. The clique bound is kept incrementally:
// every clique lists its positive-objective members by objective,
// descending, with a head at the first unassigned one, and a running sum
// holds the head objectives plus the unassigned positive weights outside
// any clique, so bound() is O(1). Propagation skips a row without scanning
// its terms when its slack is at least its largest coefficient, since such
// a row forces nothing.
package ilp

import (
	"errors"
	"sort"
)

// Sense selects the optimization direction.
type Sense int8

// Optimization senses.
const (
	Maximize Sense = iota
	Minimize
)

// Rel is a linear constraint relation.
type Rel int8

// Constraint relations.
const (
	LE Rel = iota // Σ c_i x_i ≤ rhs
	GE            // Σ c_i x_i ≥ rhs
)

// Term is one coefficient of a constraint row.
type Term struct {
	Var  int
	Coef int64
}

// Constraint is a linear row over binary variables.
type Constraint struct {
	Terms []Term
	Rel   Rel
	RHS   int64
}

// Problem is a 0-1 ILP.
type Problem struct {
	NumVars     int
	Objective   []int64 // dense, one weight per variable
	Sense       Sense
	Constraints []Constraint
}

// AddConstraint appends a row.
func (p *Problem) AddConstraint(terms []Term, rel Rel, rhs int64) {
	p.Constraints = append(p.Constraints, Constraint{Terms: terms, Rel: rel, RHS: rhs})
}

// Solution is a solver result.
type Solution struct {
	Values    []bool
	Objective int64
	// Optimal is true when the search completed; false when NodeLimit was
	// hit, in which case Values holds the best incumbent found.
	Optimal bool
	// Nodes counts the branch-and-bound nodes the search visited; it is
	// set with ErrInfeasible too.
	Nodes int64
}

// Options tunes the search.
type Options struct {
	// NodeLimit bounds branch-and-bound nodes (0 = DefaultNodeLimit).
	NodeLimit int64
	// Incumbent optionally supplies a known feasible assignment used as
	// the initial best solution (it must have length NumVars; infeasible
	// incumbents are ignored). A strong incumbent massively improves
	// pruning.
	Incumbent []bool
	// Interrupt, when non-nil, is polled every 1024 branch-and-bound
	// nodes; when it returns true the search stops and the best incumbent
	// found so far is returned with Optimal=false (or ErrInfeasible when
	// no incumbent exists yet).
	Interrupt func() bool
}

// DefaultNodeLimit bounds the search when Options.NodeLimit is 0. Callers
// with a time budget set their own limit: overlap resolution caps each
// component at 200,000 nodes, and a few dense components of the labeled
// articles stop there.
const DefaultNodeLimit = 20_000_000

// ErrInfeasible is returned when no assignment satisfies the constraints.
var ErrInfeasible = errors.New("ilp: infeasible")

type varRef struct {
	row  int32
	coef int64
}

type solver struct {
	p         *Problem
	obj       []int64 // internally always "maximize obj"
	rows      []row
	varRows   [][]varRef // rows touching each variable, with coefficients
	assign    []int8     // -1 unassigned, 0, 1
	trail     []int32
	bestVal   int64
	bestSet   []bool
	hasBest   bool
	nodes     int64
	nodeLimit int64
	currObj   int64 // objective of the current partial assignment
	interrupt func() bool
	stopped   bool // interrupt fired; unwind without exploring further
	branchOrd []int

	// Clique bound. cliqueOf[v] is the packing row used for v in the
	// bound, or -1. Each clique row ri lists its positive-objective
	// members in members[ri], by objective descending; rank[v] is v's
	// index there and head[ri] the index of the first unassigned member.
	// boundSum is the head objective of every clique plus the objective of
	// every unassigned positive variable outside any clique.
	cliqueOf []int32
	rank     []int32
	members  [][]int32
	head     []int32
	boundSum int64

	// visit, when non-nil, is called at every search node (tests only).
	visit func(*solver)
}

type row struct {
	terms []Term
	rel   Rel
	rhs   int64
	// slack bookkeeping under current partial assignment:
	// curr  = Σ over assigned terms of c_i * x_i
	// posUn = Σ over unassigned terms of max(0, c_i)
	// negUn = Σ over unassigned terms of min(0, c_i)
	// nUn   = number of unassigned terms
	curr, posUn, negUn int64
	nUn                int
	maxAbs             int64 // largest |c_i|, static
	packing            bool  // Σ x_i ≤ 1 with unit coefficients
}

// Solve finds an optimal 0-1 assignment for p.
func Solve(p *Problem, opt Options) (Solution, error) {
	s, err := newSolver(p, opt)
	if err != nil {
		return Solution{}, err
	}
	return s.solve(opt.Incumbent)
}

func newSolver(p *Problem, opt Options) (*solver, error) {
	if len(p.Objective) != p.NumVars {
		return nil, errors.New("ilp: objective length mismatch")
	}
	s := &solver{p: p, nodeLimit: opt.NodeLimit, interrupt: opt.Interrupt}
	if s.nodeLimit == 0 {
		s.nodeLimit = DefaultNodeLimit
	}
	s.obj = make([]int64, p.NumVars)
	for i, o := range p.Objective {
		if p.Sense == Minimize {
			s.obj[i] = -o
		} else {
			s.obj[i] = o
		}
	}
	s.rows = make([]row, len(p.Constraints))
	s.varRows = make([][]varRef, p.NumVars)
	for i, c := range p.Constraints {
		r := row{terms: c.Terms, rel: c.Rel, rhs: c.RHS, nUn: len(c.Terms)}
		r.packing = c.Rel == LE && c.RHS == 1
		for _, t := range c.Terms {
			if t.Var < 0 || t.Var >= p.NumVars {
				return nil, errors.New("ilp: constraint variable out of range")
			}
			if t.Coef > 0 {
				r.posUn += t.Coef
				r.maxAbs = max(r.maxAbs, t.Coef)
			} else {
				r.negUn += t.Coef
				r.maxAbs = max(r.maxAbs, -t.Coef)
			}
			if t.Coef != 1 {
				r.packing = false
			}
			s.varRows[t.Var] = append(s.varRows[t.Var], varRef{int32(i), t.Coef})
		}
		s.rows[i] = r
	}
	s.assign = make([]int8, p.NumVars)
	for i := range s.assign {
		s.assign[i] = -1
	}
	s.cliqueOf = make([]int32, p.NumVars)
	for i := range s.cliqueOf {
		s.cliqueOf[i] = -1
	}
	// Assign each variable to one packing row for the clique bound,
	// preferring larger rows (bigger cliques give tighter bounds).
	rowOrder := make([]int, 0, len(s.rows))
	for ri := range s.rows {
		if s.rows[ri].packing {
			rowOrder = append(rowOrder, ri)
		}
	}
	sort.Slice(rowOrder, func(a, b int) bool {
		return len(s.rows[rowOrder[a]].terms) > len(s.rows[rowOrder[b]].terms)
	})
	for _, ri := range rowOrder {
		for _, t := range s.rows[ri].terms {
			if s.cliqueOf[t.Var] == -1 {
				s.cliqueOf[t.Var] = int32(ri)
			}
		}
	}
	// Branch on high-objective variables first.
	s.branchOrd = make([]int, p.NumVars)
	for i := range s.branchOrd {
		s.branchOrd[i] = i
	}
	sort.Slice(s.branchOrd, func(a, b int) bool {
		oa, ob := s.obj[s.branchOrd[a]], s.obj[s.branchOrd[b]]
		if oa != ob {
			return oa > ob
		}
		return s.branchOrd[a] < s.branchOrd[b]
	})
	// Clique member lists follow branchOrd, so they come out sorted by
	// objective, descending.
	s.rank = make([]int32, p.NumVars)
	s.members = make([][]int32, len(s.rows))
	s.head = make([]int32, len(s.rows))
	for _, v := range s.branchOrd {
		if s.obj[v] <= 0 {
			continue
		}
		ri := s.cliqueOf[v]
		if ri == -1 {
			s.boundSum += s.obj[v]
			continue
		}
		if len(s.members[ri]) == 0 {
			s.boundSum += s.obj[v]
		}
		s.rank[v] = int32(len(s.members[ri]))
		s.members[ri] = append(s.members[ri], int32(v))
	}
	return s, nil
}

// solve runs the search from the greedy warm start and the optional
// caller-supplied incumbent.
func (s *solver) solve(incumbent []bool) (Solution, error) {
	p := s.p
	s.greedyWarmStart()
	if len(incumbent) == p.NumVars && feasible(p, incumbent) {
		var obj int64
		for v, on := range incumbent {
			if on {
				obj += s.obj[v]
			}
		}
		if !s.hasBest || obj > s.bestVal {
			s.bestVal = obj
			s.bestSet = append([]bool(nil), incumbent...)
			s.hasBest = true
		}
	}

	mark := len(s.trail)
	if s.propagateAll() {
		s.search(0)
	}
	s.undoTo(mark)

	if !s.hasBest {
		return Solution{Nodes: s.nodes}, ErrInfeasible
	}
	val := s.bestVal
	if p.Sense == Minimize {
		val = -val
	}
	return Solution{
		Values:    s.bestSet,
		Objective: val,
		Optimal:   s.nodes < s.nodeLimit && !s.stopped,
		Nodes:     s.nodes,
	}, nil
}

// greedyWarmStart tries to construct a feasible incumbent by greedily
// setting high-objective variables to 1 when no LE row blocks them, then
// verifying all rows. It only installs the incumbent if genuinely feasible
// (GE rows may reject it).
func (s *solver) greedyWarmStart() {
	vals := make([]bool, s.p.NumVars)
	used := make([]int64, len(s.rows))
	for _, v := range s.branchOrd {
		if s.obj[v] < 0 {
			continue
		}
		ok := true
		for _, vr := range s.varRows[v] {
			r := &s.rows[vr.row]
			if r.rel != LE {
				continue
			}
			if vr.coef > 0 && used[vr.row]+vr.coef > r.rhs {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		vals[v] = true
		for _, vr := range s.varRows[v] {
			used[vr.row] += vr.coef
		}
	}
	if !feasible(s.p, vals) {
		return
	}
	var obj int64
	for v, on := range vals {
		if on {
			obj += s.obj[v]
		}
	}
	s.bestVal = obj
	s.bestSet = vals
	s.hasBest = true
}

func feasible(p *Problem, vals []bool) bool {
	for _, c := range p.Constraints {
		var sum int64
		for _, t := range c.Terms {
			if vals[t.Var] {
				sum += t.Coef
			}
		}
		if c.Rel == LE && sum > c.RHS {
			return false
		}
		if c.Rel == GE && sum < c.RHS {
			return false
		}
	}
	return true
}

// set assigns v (recording on the trail) and updates row slacks and the
// clique bound. It returns false if a row became unsatisfiable. Every row is
// updated before the result is reported, so undoTo can revert them all.
func (s *solver) set(v int, val int8) bool {
	s.assign[v] = val
	if val == 1 {
		s.currObj += s.obj[v]
	}
	s.trail = append(s.trail, int32(v))
	if s.obj[v] > 0 {
		if ri := s.cliqueOf[v]; ri == -1 {
			s.boundSum -= s.obj[v]
		} else if s.rank[v] == s.head[ri] {
			m := s.members[ri]
			h := s.head[ri]
			for h < int32(len(m)) && s.assign[m[h]] != -1 {
				h++
			}
			s.head[ri] = h
			s.boundSum -= s.obj[v]
			if h < int32(len(m)) {
				s.boundSum += s.obj[m[h]]
			}
		}
	}
	ok := true
	for _, vr := range s.varRows[v] {
		r := &s.rows[vr.row]
		c := vr.coef
		if c > 0 {
			r.posUn -= c
		} else {
			r.negUn -= c
		}
		r.nUn--
		if val == 1 {
			r.curr += c
		}
		if r.rel == LE && r.curr+r.negUn > r.rhs {
			ok = false
		}
		if r.rel == GE && r.curr+r.posUn < r.rhs {
			ok = false
		}
	}
	return ok
}

func (s *solver) undoTo(mark int) {
	for len(s.trail) > mark {
		v := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		val := s.assign[v]
		if val == 1 {
			s.currObj -= s.obj[v]
		}
		s.assign[v] = -1
		if s.obj[v] > 0 {
			// The head is the lowest-ranked unassigned member, so
			// unassigning v moves it back to v when v ranks lower.
			if ri := s.cliqueOf[v]; ri == -1 {
				s.boundSum += s.obj[v]
			} else if h := s.head[ri]; s.rank[v] < h {
				if m := s.members[ri]; h < int32(len(m)) {
					s.boundSum -= s.obj[m[h]]
				}
				s.boundSum += s.obj[v]
				s.head[ri] = s.rank[v]
			}
		}
		for _, vr := range s.varRows[v] {
			r := &s.rows[vr.row]
			c := vr.coef
			if c > 0 {
				r.posUn += c
			} else {
				r.negUn += c
			}
			r.nUn++
			if val == 1 {
				r.curr -= c
			}
		}
	}
}

// propagateAll performs fixed-point unit propagation over all rows,
// returning false on conflict. It is used once at the root; the search
// uses the cheaper worklist propagation below.
func (s *solver) propagateAll() bool {
	for {
		changed := false
		for ri := range s.rows {
			switch s.propagateRow(ri) {
			case propConflict:
				return false
			case propChanged:
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
}

// propagateSince processes the rows touched by assignments recorded on the
// trail from mark onward; newly forced assignments extend the trail and are
// processed in turn.
func (s *solver) propagateSince(mark int) bool {
	for i := mark; i < len(s.trail); i++ {
		v := s.trail[i]
		for _, vr := range s.varRows[v] {
			if s.propagateRow(int(vr.row)) == propConflict {
				return false
			}
		}
	}
	return true
}

type propResult int8

const (
	propNone propResult = iota
	propChanged
	propConflict
)

// propagateRow forces variables whose value is implied by row ri. A term
// of coefficient c is forced when |c| exceeds the row's slack, and forcing
// never grows the slack, so a row whose slack is at least its largest |c|
// forces nothing and is skipped without a scan.
func (s *solver) propagateRow(ri int) propResult {
	r := &s.rows[ri]
	res := propNone
	if r.rel == LE {
		if r.curr+r.negUn > r.rhs {
			return propConflict
		}
		if r.nUn == 0 || r.rhs-(r.curr+r.negUn) >= r.maxAbs {
			return propNone
		}
		for _, t := range r.terms {
			if s.assign[t.Var] != -1 {
				continue
			}
			if t.Coef > 0 && r.curr+r.negUn+t.Coef > r.rhs {
				if !s.set(t.Var, 0) {
					return propConflict
				}
				res = propChanged
			} else if t.Coef < 0 && r.curr+r.negUn-t.Coef > r.rhs {
				// Leaving it 0 removes the negative help; must set to 1.
				if !s.set(t.Var, 1) {
					return propConflict
				}
				res = propChanged
			}
		}
	} else {
		if r.curr+r.posUn < r.rhs {
			return propConflict
		}
		if r.nUn == 0 || (r.curr+r.posUn)-r.rhs >= r.maxAbs {
			return propNone
		}
		for _, t := range r.terms {
			if s.assign[t.Var] != -1 {
				continue
			}
			if t.Coef > 0 && r.curr+r.posUn-t.Coef < r.rhs {
				if !s.set(t.Var, 1) {
					return propConflict
				}
				res = propChanged
			} else if t.Coef < 0 && r.curr+r.posUn+t.Coef < r.rhs {
				if !s.set(t.Var, 0) {
					return propConflict
				}
				res = propChanged
			}
		}
	}
	return res
}

// bound returns an upper bound on the best achievable objective from the
// current partial assignment: the current objective plus, for each packing
// clique, the best unassigned member, plus unclustered positive weights.
func (s *solver) bound(curr int64) int64 { return curr + s.boundSum }

func (s *solver) search(from int) {
	s.nodes++
	if s.nodes >= s.nodeLimit || s.stopped {
		return
	}
	if s.nodes&1023 == 0 && s.interrupt != nil && s.interrupt() {
		s.stopped = true
		return
	}
	if s.visit != nil {
		s.visit(s)
	}
	curr := s.currObj
	if s.hasBest && s.bound(curr) <= s.bestVal {
		return
	}
	// Pick the best-ranked unassigned variable, scanning from the parent's
	// position (earlier entries are already assigned on this path).
	v := -1
	next := from
	for ; next < len(s.branchOrd); next++ {
		if s.assign[s.branchOrd[next]] == -1 {
			v = s.branchOrd[next]
			break
		}
	}
	if v == -1 {
		if !s.hasBest || curr > s.bestVal {
			s.bestVal = curr
			s.bestSet = make([]bool, len(s.assign))
			for i, a := range s.assign {
				s.bestSet[i] = a == 1
			}
			s.hasBest = true
		}
		return
	}

	order := [2]int8{1, 0}
	if s.obj[v] < 0 {
		order = [2]int8{0, 1}
	}
	for _, val := range order {
		mark := len(s.trail)
		if s.set(v, val) && s.propagateSince(mark) {
			s.search(next + 1)
		}
		s.undoTo(mark)
		if s.nodes >= s.nodeLimit || s.stopped {
			return
		}
	}
}
