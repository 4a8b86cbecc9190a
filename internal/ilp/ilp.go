// Package ilp implements an exact solver for 0-1 integer linear programs,
// standing in for CPLEX in the paper's overlap-resolution step (Section IV).
//
// The instances produced by overlap resolution have a characteristic shape:
// binary variables (one per module or slice), packing rows (Σ x_i ≤ 1, one
// per multiply-covered netlist element), slice-linking rows, and optionally
// a single covering row (Σ S_i·x_i ≥ C_t). The solver is a branch-and-bound
// search with unit propagation over the rows, a greedy warm start, and the
// smaller of two bounds: a clique-partition bound over the packing rows, and
// a Lagrangian bound from caller-supplied multipliers on those rows. It is
// exact: when it reports Optimal, the solution maximizes (or minimizes) the
// objective.
//
// The search is AND/OR branch and bound (Marinescu & Dechter, "AND/OR
// Branch-and-Bound search for combinatorial optimization in graphical
// models", AIJ 2009). Once a few variables are set, the rest of an overlap
// problem falls apart: two free variables interact only through a row that
// is not yet entailed (satisfied by every completion). At a node whose free
// variables form independent components, each component is searched on its
// own and their optima are added, so the node count grows with the sum of
// the components' searches, not their product. A component must beat the
// incumbent less the gain so far, the optima of the components solved
// before it and the bounds of those after it, or the whole node is pruned.
// Both bounds are sums over components, so a component's bound is the
// running sum less a constant fixed at the split. Each component returns
// its lexicographically first optimum in branching order (1 before 0, 0
// first for a negative objective), and together these are the first
// optimum of the whole: the answer a plain depth-first search returns when
// it finishes, with the warm start kept on a tie.
//
// The Lagrangian bound relaxes every packing row r with its multiplier
// y_r ≥ 0 (Constraint.Multiplier) and drops every other row. Each variable
// keeps the reduced objective red_v = obj_v − Σ y_r over the packing rows
// r ∋ v, and the bound is Σ y_r over the live rows (no term set to 1, some
// term unassigned) plus Σ max(0, red_v) over the unassigned variables. It
// is valid for any y ≥ 0: a free variable of a saturated row is forced to
// 0 by propagation, so counting its max(0, red_v) only over-estimates.
// With all multipliers 0 it is the sum of the positive weights, never
// below the clique bound, so the search is unchanged for callers that set
// none.
//
// A search node costs time in the assignments it makes and the rows they
// touch, not in the problem size. Both bounds are kept incrementally. Every
// clique lists its positive-objective members by objective, descending,
// with a head at the first unassigned one, and a running sum holds the head
// objectives plus the unassigned positive weights outside any clique; a
// second running sum holds the Lagrangian terms, updated as rows stop or
// start being live. So bound() is O(1). Propagation skips a row without
// scanning its terms when its slack is at least its largest coefficient,
// since such a row forces nothing.
package ilp

import (
	"errors"
	"slices"
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
	// Multiplier is the row's Lagrangian multiplier y_r. It may be set only
	// on a packing row (Σ x_i ≤ 1 with unit coefficients) and must be ≥ 0;
	// Solve rejects anything else.
	Multiplier int64
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
	// hit, in which case Values holds the best complete incumbent found.
	Optimal bool
	// Nodes counts the branch-and-bound nodes the search visited, in every
	// component; it is set with ErrInfeasible and ErrStopped too.
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
	// found so far is returned with Optimal=false (or ErrStopped when no
	// incumbent exists yet).
	Interrupt func() bool
}

// DefaultNodeLimit bounds the search when Options.NodeLimit is 0. Callers
// with a time budget set their own limit: overlap resolution caps its one
// ILP at 200,000 nodes, and every MaxCoverage resolution of the labeled
// articles and simplified BigSoC proves optimal in under 10,000.
const DefaultNodeLimit = 20_000_000

// ErrInfeasible is returned when a search that ran to completion found no
// assignment satisfying the constraints.
var ErrInfeasible = errors.New("ilp: infeasible")

// ErrStopped is returned when the node limit or Interrupt stopped the
// search before it found any feasible assignment: the problem may still be
// feasible.
var ErrStopped = errors.New("ilp: search stopped before a feasible solution")

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

	// Lagrangian bound. lagW[v] is max(0, red_v); lagSum is the multiplier
	// of every live packing row plus lagW of every unassigned variable.
	lagW   []int64
	lagSum int64

	// Split scratch: seen and rowSeen stamp the variables and rows a
	// check has reached with epoch, compOf labels each variable's
	// component, queue is the labeling worklist and sizes the component
	// sizes.
	epoch   int32
	seen    []int32
	rowSeen []int32
	compOf  []int32
	queue   []int32
	sizes   []int32

	// visit, when non-nil, is called at every search node with the frame
	// being searched (tests only).
	visit func(*solver, *frame)
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
	mult               int64 // Lagrangian multiplier, packing rows only
}

// live reports whether a packing row still counts its multiplier in the
// Lagrangian bound: no term is set to 1 and some term is unassigned.
func (r *row) live() bool { return r.curr == 0 && r.nUn > 0 }

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
	// Each variable's row list is carved from one backing slice, counted
	// first; a term out of range is rejected below.
	s.varRows = make([][]varRef, p.NumVars)
	count := make([]int, p.NumVars)
	total := 0
	for _, c := range p.Constraints {
		for _, t := range c.Terms {
			if t.Var >= 0 && t.Var < p.NumVars {
				count[t.Var]++
				total++
			}
		}
	}
	refs := make([]varRef, total)
	for v, n := range count {
		s.varRows[v], refs = refs[:0:n], refs[n:]
	}
	for i, c := range p.Constraints {
		r := row{terms: c.Terms, rel: c.Rel, rhs: c.RHS, nUn: len(c.Terms), mult: c.Multiplier}
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
		if r.mult < 0 {
			return nil, errors.New("ilp: negative multiplier")
		}
		if r.mult != 0 && !r.packing {
			return nil, errors.New("ilp: multiplier on a non-packing row")
		}
		if r.live() {
			s.lagSum += r.mult
		}
		s.rows[i] = r
	}
	s.lagW = make([]int64, p.NumVars)
	for v, o := range s.obj {
		for _, vr := range s.varRows[v] {
			o -= s.rows[vr.row].mult
		}
		s.lagW[v] = max(0, o)
		s.lagSum += s.lagW[v]
	}
	s.seen = make([]int32, p.NumVars)
	s.compOf = make([]int32, p.NumVars)
	s.rowSeen = make([]int32, len(s.rows))
	s.assign = make([]int8, p.NumVars)
	for i := range s.assign {
		s.assign[i] = -1
	}
	s.cliqueOf = make([]int32, p.NumVars)
	for i := range s.cliqueOf {
		s.cliqueOf[i] = -1
	}
	// Assign each variable to one packing row for the clique bound,
	// preferring larger rows (bigger cliques give tighter bounds), and
	// the earlier row on a tie, so that a component's cliques do not
	// depend on the rows of any other.
	rowOrder := make([]int, 0, len(s.rows))
	for ri := range s.rows {
		if s.rows[ri].packing {
			rowOrder = append(rowOrder, ri)
		}
	}
	sort.SliceStable(rowOrder, func(a, b int) bool {
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

// solve runs the search from the better of the greedy warm start and the
// optional caller-supplied incumbent.
func (s *solver) solve(incumbent []bool) (Solution, error) {
	p := s.p
	root := &frame{vars: make([]int32, p.NumVars), most: max(1, p.NumVars/splitEvery)}
	for i, v := range s.branchOrd {
		root.vars[i] = int32(v)
	}
	if vals, val, ok := s.warmStart(incumbent); ok {
		root.best, root.bounded, root.found = val, true, true
		for v, on := range vals {
			if on {
				root.ones = append(root.ones, int32(v))
			}
		}
	}

	mark := len(s.trail)
	root.trail0 = mark
	if s.propagateAll() {
		// Check the root for a split at once: a problem may fall apart
		// before any branching.
		s.search(root, 0, mark-1, 1)
	}
	s.undoTo(mark)

	if !root.found {
		if s.nodes >= s.nodeLimit || s.stopped {
			return Solution{Nodes: s.nodes}, ErrStopped
		}
		return Solution{Nodes: s.nodes}, ErrInfeasible
	}
	vals := make([]bool, p.NumVars)
	for _, v := range root.ones {
		vals[v] = true
	}
	val := root.best
	if p.Sense == Minimize {
		val = -val
	}
	return Solution{
		Values:    vals,
		Objective: val,
		Optimal:   s.nodes < s.nodeLimit && !s.stopped,
		Nodes:     s.nodes,
	}, nil
}

// warmStart returns the better of the greedy assignment and the
// caller-supplied incumbent, with its internal (maximized) objective; ok is
// false when neither is feasible. The greedy assignment wins a tie.
func (s *solver) warmStart(incumbent []bool) (vals []bool, val int64, ok bool) {
	if vals = s.greedy(); vals != nil {
		val, ok = s.score(vals), true
	}
	if len(incumbent) == s.p.NumVars && feasible(s.p, incumbent) {
		if v := s.score(incumbent); !ok || v > val {
			vals, val, ok = slices.Clone(incumbent), v, true
		}
	}
	return vals, val, ok
}

// score is the internal objective of a complete assignment.
func (s *solver) score(vals []bool) int64 {
	var obj int64
	for v, on := range vals {
		if on {
			obj += s.obj[v]
		}
	}
	return obj
}

// greedy tries to construct a feasible assignment by greedily setting
// high-objective variables to 1 when no LE row blocks them. It returns nil
// unless the result satisfies every row (GE rows may reject it).
func (s *solver) greedy() []bool {
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
		return nil
	}
	return vals
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
	s.lagSum -= s.lagW[v]
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
		wasLive := r.live()
		if c > 0 {
			r.posUn -= c
		} else {
			r.negUn -= c
		}
		r.nUn--
		if val == 1 {
			r.curr += c
		}
		if wasLive && !r.live() {
			s.lagSum -= r.mult
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
		s.lagSum += s.lagW[v]
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
			wasLive := r.live()
			if c > 0 {
				r.posUn += c
			} else {
				r.negUn += c
			}
			r.nUn++
			if val == 1 {
				r.curr -= c
			}
			if !wasLive && r.live() {
				s.lagSum += r.mult
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

// splitEvery bounds how rarely the search looks for a split. The root is
// checked at once, and a component at its first node below its own root. A
// check that finds one component doubles the assignments before the next
// check on that path, up to a splitEvery-th of the frame's variables; a
// check that settles unconnected variables resets the gap to one. A check
// scans the frame's free variables and their rows, so a component held
// together by one covering row or a dense core pays for few checks, while
// one that keeps falling apart is checked at nearly every node.
const splitEvery = 16

// frame is one sub-problem of the search: variables that were free when
// it began, optimized while every other variable keeps its value. The root
// frame holds every variable; split opens one frame per independent
// component of a node's free variables.
type frame struct {
	vars   []int32 // the frame's variables, in branchOrd order
	trail0 int     // len(trail) when all of vars were free
	base   int64   // currObj at the start; a frame's gain is currObj − base
	// c and l are the parts of boundSum and lagSum that belong to other
	// frames. They stay constant while this frame is searched, because
	// both bounds are sums over independent components.
	c, l int64
	most int // the most assignments between split checks on a path
	// best is the gain to beat when bounded: the best solution found, or
	// the cutoff the parent needs. ones lists the frame variables set to 1
	// in the best solution found, when found.
	best    int64
	bounded bool
	found   bool
	ones    []int32
	// first is set when nothing can beat best+1: the search ends at the
	// first solution found.
	first bool
}

// bound returns an upper bound on the gain the rest of frame f can add:
// the smaller of the clique bound (for each packing clique its best
// unassigned member, plus unclustered positive weights) and the Lagrangian
// sum, each restricted to f's component.
func (s *solver) bound(f *frame) int64 { return min(s.boundSum-f.c, s.lagSum-f.l) }

// search explores the subtree at the current node within frame f. from is
// the index in f.vars below which every variable is assigned on this path,
// checked the trail length at the last split check on it, and every the
// assignments since then that make the next check due (see splitEvery).
func (s *solver) search(f *frame, from, checked, every int) {
	s.nodes++
	if s.nodes >= s.nodeLimit || s.stopped {
		return
	}
	if s.nodes&1023 == 0 && s.interrupt != nil && s.interrupt() {
		s.stopped = true
		return
	}
	if s.visit != nil {
		s.visit(s, f)
	}
	if f.bounded && s.currObj-f.base+s.bound(f) <= f.best {
		return
	}
	next := s.nextFree(f, from)
	if next < len(f.vars) && len(s.trail)-checked >= every {
		settled := len(s.trail)
		if s.split(f, next) {
			return
		}
		if len(s.trail) > settled {
			every = 1
		} else {
			every = min(2*every, f.most)
		}
		checked = len(s.trail)
		next = s.nextFree(f, next)
	}
	if next == len(f.vars) {
		if gain := s.currObj - f.base; !f.bounded || gain > f.best {
			s.record(f, gain)
		}
		return
	}

	v := int(f.vars[next])
	order := [2]int8{1, 0}
	if s.obj[v] < 0 {
		order = [2]int8{0, 1}
	}
	for _, val := range order {
		mark := len(s.trail)
		if s.set(v, val) && s.propagateSince(mark) {
			s.search(f, next+1, checked, every)
		}
		s.undoTo(mark)
		if s.nodes >= s.nodeLimit || s.stopped || f.first && f.found {
			return
		}
	}
}

// nextFree returns the index of the first unassigned variable of f at or
// after from, or len(f.vars).
func (s *solver) nextFree(f *frame, from int) int {
	for from < len(f.vars) && s.assign[f.vars[from]] != -1 {
		from++
	}
	return from
}

// record makes the current assignment of f's variables its best solution.
func (s *solver) record(f *frame, gain int64) {
	f.best, f.bounded, f.found = gain, true, true
	f.ones = f.ones[:0]
	for _, v := range f.vars {
		if s.assign[v] == 1 {
			f.ones = append(f.ones, v)
		}
	}
}

// entailed reports whether every completion of the current assignment
// satisfies row r. Such a row forces nothing, so it ties no variables
// together.
func (r *row) entailed() bool {
	if r.rel == LE {
		return r.curr+r.posUn <= r.rhs
	}
	return r.curr+r.negUn >= r.rhs
}

// component is one part of a split: its variables, its parts of boundSum
// and lagSum, and its bound. inc is the gain of f's best solution on the
// component, when that restriction is feasible at the node (incOK).
type component struct {
	vars        []int32
	clique, lag int64
	bound       int64
	inc         int64
	incOK       bool
}

// split looks for independent components among the free variables of f,
// from index next on (components). It returns false when at most one
// component remains, to be searched in f.
//
// With two or more, split solves each in its own frame, in branchOrd order
// of its first variable, and records their sum in f when it beats f.best;
// either way the node is done. A component's cutoff is what the whole
// needs from it, raised to the gain of f's best solution on it when that
// is feasible here, since no less can be optimal. A component that cannot
// beat that gain has it as its optimum ("tied"); if the whole then wins,
// each tied component is searched again for the first solution reaching
// it, its lexicographically first optimum.
func (s *solver) split(f *frame, next int) bool {
	comps := s.components(f, next)
	if len(comps) < 2 {
		return false
	}
	gain := s.currObj - f.base
	var bounds int64
	s.epoch++
	for _, v := range f.ones {
		s.seen[v] = s.epoch
	}
	for k := range comps {
		c := &comps[k]
		c.incOK = f.found
		for _, v := range c.vars {
			if o := s.obj[v]; o > 0 {
				if ri := s.cliqueOf[v]; ri == -1 || s.rank[v] == s.head[ri] {
					c.clique += o
				}
			}
			if s.seen[v] == s.epoch {
				c.inc += s.obj[v]
			}
			c.lag += s.lagW[v]
			for _, vr := range s.varRows[v] {
				if s.rowSeen[vr.row] != s.epoch {
					s.rowSeen[vr.row] = s.epoch
					r := &s.rows[vr.row]
					if r.live() {
						c.lag += r.mult
					}
					if c.incOK && !r.entailed() {
						sum := r.curr
						for _, t := range r.terms {
							if s.assign[t.Var] == -1 && s.seen[t.Var] == s.epoch {
								sum += t.Coef
							}
						}
						c.incOK = r.rel == LE && sum <= r.rhs || r.rel == GE && sum >= r.rhs
					}
				}
			}
		}
		c.bound = min(c.clique, c.lag)
		bounds += c.bound
	}
	if f.bounded && gain+bounds <= f.best {
		return true
	}
	var got int64 // optima of the components solved so far
	ones := make([][]int32, len(comps))
	var tied []int // components whose optimum is their incumbent's value
	for k := range comps {
		c := &comps[k]
		bounds -= c.bound
		sub := s.open(c)
		if f.bounded {
			sub.best, sub.bounded = f.best-(gain+got+bounds), true
			if c.incOK {
				sub.best = max(sub.best, c.inc)
			}
		}
		s.search(sub, 0, len(s.trail), 1)
		switch {
		case sub.found:
			got += sub.best
			ones[k] = sub.ones
		case s.nodes < s.nodeLimit && !s.stopped && c.incOK && sub.best == c.inc:
			got += c.inc
			tied = append(tied, k)
		default:
			return true
		}
	}
	if f.bounded && gain+got <= f.best {
		return true
	}
	// The whole beats f.best, so each tied component needs its own
	// lexicographically first optimum. Its value is known, so the search
	// stops at the first solution that reaches it.
	for _, k := range tied {
		sub := s.open(&comps[k])
		sub.best, sub.bounded, sub.first = comps[k].inc-1, true, true
		s.search(sub, 0, len(s.trail), 1)
		if !sub.found {
			return true
		}
		ones[k] = sub.ones
	}
	s.record(f, gain+got)
	for _, o := range ones {
		f.ones = append(f.ones, o...)
	}
	return true
}

// components labels the free variables of f from index next on by
// component: two are connected when they share a row that is not entailed.
// A variable connected to no other takes its better value at once (1 on a
// tie, as the search would branch). It returns the other components, each
// with its variables in branchOrd order, in order of their first variable,
// or nil when every free variable is in one component.
func (s *solver) components(f *frame, next int) []component {
	free := len(f.vars) - (len(s.trail) - f.trail0)
	s.epoch++
	sizes := s.sizes[:0]
	singles := 0
	for _, v := range f.vars[next:] {
		if s.assign[v] != -1 || s.seen[v] == s.epoch {
			continue
		}
		n := s.label(v, int32(len(sizes)), free)
		if n == free {
			return nil
		}
		if n == 1 {
			singles++
		}
		sizes = append(sizes, int32(n))
	}
	s.sizes = sizes

	comps := make([]component, 0, len(sizes)-singles)
	at := make([]int32, len(sizes)) // component index of each label
	buf := make([]int32, 0, free-singles)
	for id, n := range sizes {
		if n == 1 {
			at[id] = -1
			continue
		}
		at[id] = int32(len(comps))
		comps = append(comps, component{vars: buf[len(buf) : len(buf) : len(buf)+int(n)]})
		buf = buf[:len(buf)+int(n)]
	}
	for _, v := range f.vars[next:] {
		if s.assign[v] != -1 {
			continue
		}
		k := at[s.compOf[v]]
		if k == -1 {
			val := int8(1)
			if s.obj[v] < 0 {
				val = 0
			}
			// Every row of an unconnected variable is entailed, so
			// neither value conflicts or forces anything.
			s.set(int(v), val)
			continue
		}
		comps[k].vars = append(comps[k].vars, v)
	}
	return comps
}

// open returns a frame for component c at the current node.
func (s *solver) open(c *component) *frame {
	return &frame{
		vars:   c.vars,
		trail0: len(s.trail),
		base:   s.currObj,
		c:      s.boundSum - c.clique,
		l:      s.lagSum - c.lag,
		most:   max(1, len(c.vars)/splitEvery),
	}
}

// label marks the component of free variable v with id, walking rows that
// are not entailed, and returns its size. It stops early, returning free,
// at a row that holds all free variables of the frame.
func (s *solver) label(v, id int32, free int) int {
	q := append(s.queue[:0], v)
	s.seen[v], s.compOf[v] = s.epoch, id
	for i := 0; i < len(q); i++ {
		for _, vr := range s.varRows[q[i]] {
			if s.rowSeen[vr.row] == s.epoch {
				continue
			}
			s.rowSeen[vr.row] = s.epoch
			r := &s.rows[vr.row]
			if r.entailed() {
				continue
			}
			if r.nUn == free {
				s.queue = q
				return free
			}
			for _, t := range r.terms {
				if u := int32(t.Var); s.assign[u] == -1 && s.seen[u] != s.epoch {
					s.seen[u], s.compOf[u] = s.epoch, id
					q = append(q, u)
				}
			}
		}
	}
	s.queue = q
	return len(q)
}
