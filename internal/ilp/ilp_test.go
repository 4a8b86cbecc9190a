package ilp

import (
	"math/rand"
	"testing"
)

// bruteForce enumerates all assignments and returns the best objective and
// whether any assignment is feasible.
func bruteForce(p *Problem) (int64, bool) {
	best := int64(0)
	found := false
	for m := 0; m < 1<<uint(p.NumVars); m++ {
		vals := make([]bool, p.NumVars)
		for i := range vals {
			vals[i] = m>>uint(i)&1 == 1
		}
		if !feasible(p, vals) {
			continue
		}
		var obj int64
		for i, on := range vals {
			if on {
				obj += p.Objective[i]
			}
		}
		if !found {
			best = obj
			found = true
			continue
		}
		if p.Sense == Maximize && obj > best {
			best = obj
		}
		if p.Sense == Minimize && obj < best {
			best = obj
		}
	}
	return best, found
}

// simplePacking: two overlapping modules of size 5 and 3 plus a disjoint
// module of size 4; optimal coverage = 5 + 4.
func simplePacking() *Problem {
	p := &Problem{NumVars: 3, Objective: []int64{5, 3, 4}, Sense: Maximize}
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 1)
	return p
}

func TestSimplePacking(t *testing.T) {
	sol, err := Solve(simplePacking(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 9 || !sol.Optimal {
		t.Errorf("objective = %d optimal=%v, want 9 true", sol.Objective, sol.Optimal)
	}
	if !sol.Values[0] || sol.Values[1] || !sol.Values[2] {
		t.Errorf("values = %v, want [true false true]", sol.Values)
	}
}

// coverageTarget: modules of size 6, 5, 5, 2; cover at least 10 elements
// with the fewest modules: {6,5} = 2 modules.
func coverageTarget() *Problem {
	p := &Problem{NumVars: 4, Objective: []int64{1, 1, 1, 1}, Sense: Minimize}
	p.AddConstraint([]Term{{0, 6}, {1, 5}, {2, 5}, {3, 2}}, GE, 10)
	return p
}

func TestMinimizeWithCoverageTarget(t *testing.T) {
	sol, err := Solve(coverageTarget(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 2 {
		t.Errorf("objective = %d, want 2", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []int64{1, 1}, Sense: Maximize}
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 3) // max achievable is 2
	if _, err := Solve(p, Options{}); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

// forcedVariables: x0 >= 1 forces x0; x0 + x1 <= 1 then forces x1 = 0.
func forcedVariables() *Problem {
	p := &Problem{NumVars: 2, Objective: []int64{1, 10}, Sense: Maximize}
	p.AddConstraint([]Term{{0, 1}}, GE, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 1)
	return p
}

func TestForcedVariables(t *testing.T) {
	sol, err := Solve(forcedVariables(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Values[0] || sol.Values[1] {
		t.Errorf("values = %v, want [true false]", sol.Values)
	}
	if sol.Objective != 1 {
		t.Errorf("objective = %d, want 1", sol.Objective)
	}
}

// sliceLinkingShape is a miniature of the paper's sliceable formulation
// (Figure 8): a 5-bit mux with slices x1..x5 and umbrella x0, overlapping a
// RAM module y. Slices 4 and 5 overlap the RAM; MinSlices = 2.
// Vars: 0=x_i0, 1..5=x_i1..x_i5, 6=y (RAM, size 40).
func sliceLinkingShape() *Problem {
	obj := []int64{1, 3, 3, 3, 3, 3, 40} // shared inverter=1, slices=3 gates each
	p := &Problem{NumVars: 7, Objective: obj, Sense: Maximize}
	// Overlap: slice4/slice5 vs RAM.
	p.AddConstraint([]Term{{4, 1}, {6, 1}}, LE, 1)
	p.AddConstraint([]Term{{5, 1}, {6, 1}}, LE, 1)
	// Slice linking: x0 >= xj  <=>  x0 - xj >= 0.
	for j := 1; j <= 5; j++ {
		p.AddConstraint([]Term{{0, 1}, {j, -1}}, GE, 0)
	}
	// MinSlices: sum xj - 2*x0 >= 0.
	p.AddConstraint([]Term{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {0, -2}}, GE, 0)
	return p
}

func TestSliceLinkingShape(t *testing.T) {
	sol, err := Solve(sliceLinkingShape(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Expected: RAM + slices 1,2,3 + umbrella = 40 + 9 + 1 = 50.
	if sol.Objective != 50 {
		t.Errorf("objective = %d, want 50 (values %v)", sol.Objective, sol.Values)
	}
	if !sol.Values[6] || !sol.Values[0] || sol.Values[4] || sol.Values[5] {
		t.Errorf("values = %v", sol.Values)
	}
}

// randomProblem draws a problem of 2-10 variables and up to 5 mixed rows
// with coefficients in [-3, 5].
func randomProblem(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(9)
	p := &Problem{NumVars: n, Sense: Sense(rng.Intn(2))}
	p.Objective = make([]int64, n)
	for i := range p.Objective {
		p.Objective[i] = int64(rng.Intn(21) - 5)
	}
	nCons := rng.Intn(6)
	for c := 0; c < nCons; c++ {
		nTerms := 1 + rng.Intn(n)
		perm := rng.Perm(n)[:nTerms]
		var terms []Term
		for _, v := range perm {
			terms = append(terms, Term{v, int64(rng.Intn(9) - 3)})
		}
		rel := Rel(rng.Intn(2))
		rhs := int64(rng.Intn(13) - 4)
		p.AddConstraint(terms, rel, rhs)
	}
	return p
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng)
		want, wantFeas := bruteForce(p)
		sol, err := Solve(p, Options{})
		if !wantFeas {
			if err != ErrInfeasible {
				t.Fatalf("trial %d: expected infeasible, got %v obj=%d", trial, err, sol.Objective)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: err = %v, want feasible obj %d", trial, err, want)
		}
		if sol.Objective != want {
			t.Fatalf("trial %d: objective = %d, want %d (sense=%v)", trial, sol.Objective, want, p.Sense)
		}
		if !feasible(p, sol.Values) {
			t.Fatalf("trial %d: returned assignment infeasible", trial)
		}
	}
}

// largePacking: 600 modules in 200 overlapping triples; each triple
// contributes its max to the optimum, want.
func largePacking() (p *Problem, want int64) {
	rng := rand.New(rand.NewSource(99))
	const groups = 200
	p = &Problem{NumVars: 3 * groups, Sense: Maximize}
	p.Objective = make([]int64, p.NumVars)
	for g := 0; g < groups; g++ {
		best := int64(0)
		var terms []Term
		for j := 0; j < 3; j++ {
			v := 3*g + j
			p.Objective[v] = int64(1 + rng.Intn(50))
			if p.Objective[v] > best {
				best = p.Objective[v]
			}
			terms = append(terms, Term{v, 1})
		}
		p.AddConstraint(terms, LE, 1)
		want += best
	}
	return p, want
}

func TestLargePackingPerformance(t *testing.T) {
	// The triples must solve quickly and optimally.
	p, want := largePacking()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != want || !sol.Optimal {
		t.Errorf("objective = %d (optimal=%v), want %d", sol.Objective, sol.Optimal, want)
	}
}
