package ilp

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// scanBound is the clique bound computed from scratch by a scan over every
// variable: the current objective, plus for each clique its best unassigned
// positive member, plus every unassigned positive variable outside any
// clique. The solver's incremental bound must equal it at every node.
func scanBound(s *solver) int64 {
	best := make(map[int32]int64)
	b := s.currObj
	for v, a := range s.assign {
		if a != -1 || s.obj[v] <= 0 {
			continue
		}
		ri := s.cliqueOf[v]
		if ri == -1 {
			b += s.obj[v]
			continue
		}
		if cur, ok := best[ri]; !ok || s.obj[v] > cur {
			best[ri] = s.obj[v]
		}
	}
	for _, o := range best {
		b += o
	}
	return b
}

// solverState is the search's mutable bookkeeping.
type solverState struct {
	Curr, PosUn, NegUn []int64
	NUn                []int
	Head               []int32
	BoundSum, CurrObj  int64
	Assign             []int8
	Trail              int
}

func stateOf(s *solver) solverState {
	st := solverState{
		Head:     append([]int32(nil), s.head...),
		BoundSum: s.boundSum,
		CurrObj:  s.currObj,
		Assign:   append([]int8(nil), s.assign...),
		Trail:    len(s.trail),
	}
	for _, r := range s.rows {
		st.Curr = append(st.Curr, r.curr)
		st.PosUn = append(st.PosUn, r.posUn)
		st.NegUn = append(st.NegUn, r.negUn)
		st.NUn = append(st.NUn, r.nUn)
	}
	return st
}

// checkedSolve solves p, failing tb if the incremental bound differs from
// scanBound at any search node or if any bookkeeping is not back at its
// initial value once the search has unwound.
func checkedSolve(tb testing.TB, p *Problem, opt Options) (Solution, error) {
	tb.Helper()
	s, err := newSolver(p, opt)
	if err != nil {
		return Solution{}, err
	}
	initial := stateOf(s)
	s.visit = func(s *solver) {
		if got, want := s.bound(s.currObj), scanBound(s); got != want {
			tb.Fatalf("node %d: bound %d, scan %d", s.nodes, got, want)
		}
	}
	sol, err := s.solve(opt.Incumbent)
	if final := stateOf(s); !reflect.DeepEqual(final, initial) {
		tb.Fatalf("bookkeeping not restored after Solve:\n got  %+v\n want %+v", final, initial)
	}
	return sol, err
}

// checkAgainstBruteForce fails tb unless sol/err is consistent with
// exhaustive enumeration: returned values are feasible and score the
// returned objective, an Optimal result is the optimum, and a search that
// ended before nodeLimit reports infeasibility only for infeasible p.
func checkAgainstBruteForce(tb testing.TB, p *Problem, sol Solution, err error, nodeLimit int64) {
	tb.Helper()
	want, wantFeas := bruteForce(p)
	if err != nil {
		if !errors.Is(err, ErrInfeasible) {
			tb.Fatal(err)
		}
		if wantFeas && sol.Nodes < nodeLimit {
			tb.Fatalf("ErrInfeasible after %d of %d nodes, want objective %d", sol.Nodes, nodeLimit, want)
		}
		return
	}
	if !feasible(p, sol.Values) {
		tb.Fatalf("returned assignment %v infeasible", sol.Values)
	}
	var obj int64
	for v, on := range sol.Values {
		if on {
			obj += p.Objective[v]
		}
	}
	if obj != sol.Objective {
		tb.Fatalf("objective %d, values score %d", sol.Objective, obj)
	}
	if sol.Optimal && sol.Objective != want {
		tb.Fatalf("optimal objective %d, brute force %d (sense %v)", sol.Objective, want, p.Sense)
	}
}

// randomOverlapProblem draws an overlap-shaped problem of at most 14
// variables: whole modules and sliceable ones (umbrella, slices, linking
// and MinSlices rows) tied together by unit packing rows, scored like
// overlap's MaxCoverage objective.
func randomOverlapProblem(rng *rand.Rand) *Problem {
	p := &Problem{Sense: Maximize}
	var size []int64
	var reps []int
	newVar := func(sz int64) int {
		p.NumVars++
		size = append(size, sz)
		return p.NumVars - 1
	}
	for p.NumVars < 10 {
		if rng.Intn(2) == 0 {
			reps = append(reps, newVar(int64(1+rng.Intn(20))))
			continue
		}
		x0 := newVar(int64(rng.Intn(3)))
		reps = append(reps, x0)
		k := 2 + rng.Intn(3)
		minus := []Term{{x0, -2}}
		for j := 0; j < k; j++ {
			sv := newVar(int64(1 + rng.Intn(6)))
			p.AddConstraint([]Term{{x0, 1}, {sv, -1}}, GE, 0)
			minus = append(minus, Term{sv, 1})
		}
		p.AddConstraint(minus, GE, 0)
	}
	for c := 2 + rng.Intn(8); c > 0; c-- {
		perm := rng.Perm(p.NumVars)[:2+rng.Intn(3)]
		terms := make([]Term, len(perm))
		for i, v := range perm {
			terms[i] = Term{v, 1}
		}
		p.AddConstraint(terms, LE, 1)
	}
	k := int64(len(reps) + 1)
	p.Objective = make([]int64, p.NumVars)
	for v, sz := range size {
		p.Objective[v] = sz * k
	}
	for _, v := range reps {
		p.Objective[v]--
	}
	return p
}

func TestBoundMatchesScan(t *testing.T) {
	large, _ := largePacking()
	shapes := map[string]*Problem{
		"simplePacking":     simplePacking(),
		"coverageTarget":    coverageTarget(),
		"forcedVariables":   forcedVariables(),
		"sliceLinkingShape": sliceLinkingShape(),
		"largePacking":      large,
	}
	for name, p := range shapes {
		if _, err := checkedSolve(t, p, Options{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// Small node limits stop the search mid-tree, so the unwinding from a
	// node-limited stop is checked too.
	limits := []int64{1, 2, 3, 5, 8, 13, 21, 34, 0}
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 400; trial++ {
		p := randomProblem(rng)
		if trial%2 == 1 {
			p = randomOverlapProblem(rng)
		}
		limit := limits[trial%len(limits)]
		sol, err := checkedSolve(t, p, Options{NodeLimit: limit})
		if limit == 0 {
			limit = DefaultNodeLimit
		}
		checkAgainstBruteForce(t, p, sol, err, limit)
	}
}

// TestSetConflictUnwind pins the unwinding of a conflicting assignment:
// set must update every row of the variable even after one of them is
// violated, because undoTo reverts them all.
func TestSetConflictUnwind(t *testing.T) {
	// x0 ≤ 0 is violated by x0 = 1 before x0 + x1 ≥ 1, the later row of
	// x0, is reached.
	p := &Problem{NumVars: 2, Objective: []int64{1, 1}}
	p.AddConstraint([]Term{{0, 1}}, LE, 0)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 1)
	s, err := newSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	initial := stateOf(s)
	if s.set(0, 1) {
		t.Fatal("set(x0=1) reported no conflict")
	}
	s.undoTo(0)
	if got := stateOf(s); !reflect.DeepEqual(got, initial) {
		t.Fatalf("after undo:\n got  %+v\n want %+v", got, initial)
	}

	// A problem found by a seeded random search whose root propagation
	// hits a conflict in a row that is not the variable's last; the search
	// must still unwind every row and find the optimum, x = (1, 1).
	p = &Problem{NumVars: 2, Objective: []int64{3, -2}}
	p.AddConstraint([]Term{{1, -2}, {0, 3}}, GE, -1)
	p.AddConstraint([]Term{{1, -2}, {0, -1}}, LE, -1)
	p.AddConstraint([]Term{{0, -3}, {1, -1}}, LE, 1)
	p.AddConstraint([]Term{{1, -3}, {0, 2}}, LE, 0)
	sol, err := checkedSolve(t, p, Options{})
	checkAgainstBruteForce(t, p, sol, err, DefaultNodeLimit)
	if sol.Objective != 1 || !sol.Optimal {
		t.Errorf("objective %d (optimal %v), want 1 (true)", sol.Objective, sol.Optimal)
	}
}

// FuzzSolve decodes a small problem with mixed ≤/≥ rows and signed
// coefficients plus a node limit, and checks the solution against brute
// force, the incremental bound against scanBound at every node, and the
// bookkeeping after the search.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{3, 0, 5, 3, 4, 0, 2, 3, 1, 1, 1})
	f.Add([]byte{7, 1, 1, 1, 1, 1, 1, 1, 1, 200, 4, 5, 1, 0, 1, 0xfe, 3, 2, 0, 3})
	f.Add([]byte{6, 0, 250, 9, 9, 3, 3, 3, 130, 5, 63, 2, 2, 2, 2, 2, 2, 1, 5, 44, 255, 1, 1, 7, 0, 251})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := 1 + int(next()%8)
		p := &Problem{NumVars: n, Sense: Sense(next() % 2), Objective: make([]int64, n)}
		for i := range p.Objective {
			p.Objective[i] = int64(int8(next())) % 16
		}
		var limit int64
		if b := next(); b >= 128 {
			limit = 1 + int64(b%32)
		}
		for c := int(next() % 6); c > 0; c-- {
			mask := int(next()) & (1<<n - 1)
			var terms []Term
			for v := 0; v < n; v++ {
				if mask>>v&1 == 1 {
					terms = append(terms, Term{v, int64(int8(next())) % 8})
				}
			}
			p.AddConstraint(terms, Rel(next()%2), int64(int8(next()))%12)
		}
		sol, err := checkedSolve(t, p, Options{NodeLimit: limit})
		if limit == 0 {
			limit = DefaultNodeLimit
		}
		checkAgainstBruteForce(t, p, sol, err, limit)
	})
}
