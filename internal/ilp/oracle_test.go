package ilp

import (
	"math/rand"
	"reflect"
	"testing"
)

// dfsOracle is the plain depth-first branch and bound that Solve ran before
// it solved independent components separately: one search over every
// variable in branchOrd order, 1 before 0 (0 first for a negative
// objective), keeping the incumbent on ties. Whenever it finishes within its
// node limit it returns the lexicographically first optimum, or the warm
// start when that is optimal, which Solve must reproduce exactly.
type dfsOracle struct {
	*solver
	best    int64
	bestSet []bool
	hasBest bool
}

func dfsSolve(p *Problem, opt Options) (Solution, error) {
	s, err := newSolver(p, opt)
	if err != nil {
		return Solution{}, err
	}
	d := &dfsOracle{solver: s}
	d.bestSet, d.best, d.hasBest = s.warmStart(opt.Incumbent)
	mark := len(s.trail)
	if s.propagateAll() {
		d.search(0)
	}
	s.undoTo(mark)
	if !d.hasBest {
		return Solution{Nodes: s.nodes}, ErrInfeasible
	}
	val := d.best
	if p.Sense == Minimize {
		val = -val
	}
	return Solution{
		Values:    d.bestSet,
		Objective: val,
		Optimal:   s.nodes < s.nodeLimit && !s.stopped,
		Nodes:     s.nodes,
	}, nil
}

func (d *dfsOracle) search(from int) {
	s := d.solver
	s.nodes++
	if s.nodes >= s.nodeLimit {
		return
	}
	curr := s.currObj
	if d.hasBest && curr+min(s.boundSum, s.lagSum) <= d.best {
		return
	}
	v := -1
	next := from
	for ; next < len(s.branchOrd); next++ {
		if s.assign[s.branchOrd[next]] == -1 {
			v = s.branchOrd[next]
			break
		}
	}
	if v == -1 {
		if !d.hasBest || curr > d.best {
			d.best, d.hasBest = curr, true
			d.bestSet = make([]bool, len(s.assign))
			for i, a := range s.assign {
				d.bestSet[i] = a == 1
			}
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
			d.search(next + 1)
		}
		s.undoTo(mark)
		if s.nodes >= s.nodeLimit {
			return
		}
	}
}

// blockProblem joins 2-4 independent random problems into one: the blocks'
// variables are interleaved by a random permutation, their rows kept, and
// the sense taken from the first block.
func blockProblem(rng *rand.Rand) *Problem {
	var blocks []*Problem
	n := 0
	for k := 2 + rng.Intn(3); k > 0; k-- {
		b := randomProblem(rng)
		if rng.Intn(2) == 0 {
			b = randomOverlapProblem(rng)
		}
		blocks = append(blocks, b)
		n += b.NumVars
	}
	perm := rng.Perm(n)
	p := &Problem{NumVars: n, Sense: blocks[0].Sense, Objective: make([]int64, n)}
	off := 0
	for _, b := range blocks {
		for v, o := range b.Objective {
			p.Objective[perm[off+v]] = o
		}
		for _, c := range b.Constraints {
			terms := make([]Term, len(c.Terms))
			for i, t := range c.Terms {
				terms[i] = Term{perm[off+t.Var], t.Coef}
			}
			c.Terms = terms
			p.Constraints = append(p.Constraints, c)
		}
		off += b.NumVars
	}
	return p
}

// TestAgainstDFS checks Solve against the depth-first oracle: on every
// problem the oracle proves within its node limit, Solve must return the
// same values and objective, proven optimal, and keep every bound equal to
// its scan. Block-structured problems split at the root and below it.
func TestAgainstDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	proved := 0
	for trial := 0; trial < 1500; trial++ {
		var p *Problem
		switch trial % 3 {
		case 0:
			p = randomProblem(rng)
		case 1:
			p = randomOverlapProblem(rng)
		default:
			p = blockProblem(rng)
		}
		var opt Options
		if trial%5 == 4 {
			// A caller-supplied incumbent: the first feasible assignment
			// a short search finds.
			if sol, err := dfsSolve(p, Options{NodeLimit: 3}); err == nil {
				opt.Incumbent = sol.Values
			}
		}
		want, werr := dfsSolve(p, Options{NodeLimit: 200_000, Incumbent: opt.Incumbent})
		if werr == nil && !want.Optimal {
			continue
		}
		proved++
		got, err := checkedSolve(t, p, opt)
		if (err == nil) != (werr == nil) {
			t.Fatalf("trial %d: err %v, oracle %v", trial, err, werr)
		}
		if err != nil {
			continue
		}
		if !got.Optimal || got.Objective != want.Objective || !reflect.DeepEqual(got.Values, want.Values) {
			t.Fatalf("trial %d: got %v objective %d optimal %v; oracle %v objective %d",
				trial, got.Values, got.Objective, got.Optimal, want.Values, want.Objective)
		}
	}
	if proved < 1000 {
		t.Fatalf("oracle proved only %d problems", proved)
	}
}

// TestDisjointCopies checks that independent parts are solved once each,
// not as a cross product: k disjoint copies of one block take at most k·n₁ +
// k nodes, n₁ being the nodes of the block alone.
func TestDisjointCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		b := randomOverlapProblem(rng)
		one, err := Solve(b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for k := 2; k <= 5; k++ {
			p := &Problem{NumVars: k * b.NumVars, Sense: b.Sense}
			for c := 0; c < k; c++ {
				off := c * b.NumVars
				p.Objective = append(p.Objective, b.Objective...)
				for _, r := range b.Constraints {
					terms := make([]Term, len(r.Terms))
					for i, t := range r.Terms {
						terms[i] = Term{off + t.Var, t.Coef}
					}
					r.Terms = terms
					p.Constraints = append(p.Constraints, r)
				}
			}
			sol, err := Solve(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Optimal || sol.Objective != int64(k)*one.Objective {
				t.Fatalf("trial %d, %d copies: objective %d (optimal %v), want %d", trial, k, sol.Objective, sol.Optimal, int64(k)*one.Objective)
			}
			if limit := int64(k)*one.Nodes + int64(k); sol.Nodes > limit {
				t.Errorf("trial %d, %d copies: %d nodes, more than %d·%d + %d", trial, k, sol.Nodes, k, one.Nodes, k)
			}
		}
	}
}
