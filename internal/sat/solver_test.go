package sat

import (
	"math/rand"
	"testing"

	"netlistre/internal/netlist"
)

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false))
	s.AddClause(MkLit(b, true))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if !s.Value(a) || s.Value(b) {
		t.Errorf("model a=%v b=%v, want true,false", s.Value(a), s.Value(b))
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if ok := s.AddClause(MkLit(a, true)); ok {
		t.Error("adding contradictory unit should report failure")
	}
	if s.Solve() != Unsat {
		t.Error("solver should be unsat")
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n): n+1 pigeons in n holes is unsatisfiable.
	for n := 2; n <= 5; n++ {
		s := New()
		vars := make([][]int, n+1)
		for p := range vars {
			vars[p] = make([]int, n)
			for h := range vars[p] {
				vars[p][h] = s.NewVar()
			}
		}
		for p := 0; p <= n; p++ {
			lits := make([]Lit, n)
			for h := 0; h < n; h++ {
				lits[h] = MkLit(vars[p][h], false)
			}
			s.AddClause(lits...)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 <= n; p1++ {
				for p2 := p1 + 1; p2 <= n; p2++ {
					s.AddClause(MkLit(vars[p1][h], true), MkLit(vars[p2][h], true))
				}
			}
		}
		if got := s.Solve(); got != Unsat {
			t.Errorf("PHP(%d,%d) = %v, want Unsat", n+1, n, got)
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	// a -> b
	s.AddClause(MkLit(a, true), MkLit(b, false))
	if s.Solve(MkLit(a, false), MkLit(b, true)) != Unsat {
		t.Error("a & ~b should be unsat under a->b")
	}
	// Solver must remain usable after an assumption failure.
	if s.Solve(MkLit(a, false)) != Sat {
		t.Error("a alone should be sat")
	}
	if !s.Value(a) || !s.Value(b) {
		t.Error("model should satisfy a and b")
	}
	if s.Solve() != Sat {
		t.Error("no assumptions should be sat")
	}
}

// bruteForceSat checks satisfiability of a clause set by enumeration.
func bruteForceSat(nVars int, clauses [][]Lit) bool {
	for m := 0; m < 1<<uint(nVars); m++ {
		all := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				v := m>>uint(l.Var())&1 == 1
				if v != l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// TestRandom3SATAgainstBruteForce is the solver's core correctness
// property: agreement with exhaustive enumeration on random instances
// around the phase-transition density.
func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		nVars := 4 + rng.Intn(9)
		nClauses := int(4.3 * float64(nVars))
		var clauses [][]Lit
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		for i := 0; i < nClauses; i++ {
			c := make([]Lit, 3)
			for j := range c {
				c[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 0)
			}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		want := bruteForceSat(nVars, clauses)
		got := s.Solve()
		if (got == Sat) != want {
			t.Fatalf("trial %d: solver=%v bruteforce=%v", trial, got, want)
		}
		if got == Sat {
			// The model must satisfy all clauses.
			for ci, c := range clauses {
				ok := false
				for _, l := range c {
					if s.Value(l.Var()) != l.Sign() {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("trial %d: model violates clause %d", trial, ci)
				}
			}
		}
	}
}

// equivalent reports whether nodes a and b compute the same function of
// their boundary signals under the assumed boundary cube: the miter
// a XOR b must be unsatisfiable.
func equivalent(nl *netlist.Netlist, a, b netlist.ID, assume map[netlist.ID]bool) bool {
	s := New()
	e := NewEncoder(s, nl)
	assumptions := []Lit{e.NotEqualWitness(e.LitOf(a), e.LitOf(b))}
	for id, v := range assume {
		assumptions = append(assumptions, MkLit(e.LitOf(id).Var(), !v))
	}
	return s.Solve(assumptions...) == Unsat
}

func TestEncoderEquivalence(t *testing.T) {
	// Two structurally different implementations of xor3 must be proven
	// equivalent; xor3 vs xnor3 must not.
	nl := netlist.New("t")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	c := nl.AddInput("c")
	x1 := nl.AddGate(netlist.Xor, a, b, c)
	ab := nl.AddGate(netlist.Xor, a, b)
	x2 := nl.AddGate(netlist.Xor, ab, c)
	x3 := nl.AddGate(netlist.Xnor, a, b, c)

	if !equivalent(nl, x1, x2, nil) {
		t.Error("xor3 implementations not proven equivalent")
	}
	if equivalent(nl, x1, x3, nil) {
		t.Error("xor3 and xnor3 claimed equivalent")
	}
}

func TestEquivalentUnderAssumptions(t *testing.T) {
	// f = s ? a : b and g = a are equivalent only under s=1.
	nl := netlist.New("t")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	sSig := nl.AddInput("s")
	sa := nl.AddGate(netlist.And, sSig, a)
	ns := nl.AddGate(netlist.Not, sSig)
	nsb := nl.AddGate(netlist.And, ns, b)
	f := nl.AddGate(netlist.Or, sa, nsb)
	g := nl.AddGate(netlist.Buf, a)

	if equivalent(nl, f, g, nil) {
		t.Error("mux and passthrough claimed equivalent unconditionally")
	}
	if !equivalent(nl, f, g, map[netlist.ID]bool{sSig: true}) {
		t.Error("mux|s=1 and passthrough not proven equivalent")
	}
}

// randomCone builds a random netlist over a few inputs, a latch and both
// constants: 2- and 3-input gates, buffers and inverters, and 1- to
// 4-input LUTs (1-input masks include the inverter and buffer forms). It
// returns the boundary signals and the generated nodes.
func randomCone(rng *rand.Rand) (nl *netlist.Netlist, boundary, nodes []netlist.ID) {
	nl = netlist.New("r")
	nIn := 4 + rng.Intn(2)
	for i := 0; i < nIn; i++ {
		boundary = append(boundary, nl.AddInput(string(rune('a'+i))))
	}
	boundary = append(boundary, nl.AddLatch(boundary[0]))
	pool := append([]netlist.ID{nl.AddConst(false), nl.AddConst(true)}, boundary...)
	pick := func() netlist.ID { return pool[rng.Intn(len(pool))] }
	kinds := []netlist.Kind{netlist.And, netlist.Or, netlist.Nand, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf, netlist.Lut}
	for i := 0; i < 20; i++ {
		var id netlist.ID
		switch k := kinds[rng.Intn(len(kinds))]; k {
		case netlist.Not, netlist.Buf:
			id = nl.AddGate(k, pick())
		case netlist.Lut:
			fan := make([]netlist.ID, 1+rng.Intn(4))
			for j := range fan {
				fan[j] = pick()
			}
			mask := rng.Uint64() & (uint64(1)<<(uint(1)<<uint(len(fan))) - 1)
			id = nl.AddLut(mask, fan...)
		default:
			fan := make([]netlist.ID, 2+rng.Intn(2))
			for j := range fan {
				fan[j] = pick()
			}
			id = nl.AddGate(k, fan...)
		}
		pool = append(pool, id)
		nodes = append(nodes, id)
	}
	return nl, boundary, nodes
}

// litValue is the value of literal l in the solver's model.
func litValue(s *Solver, l Lit) bool { return s.Value(l.Var()) != l.Sign() }

func TestEncoderAgainstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		nl, boundary, nodes := randomCone(rng)
		s := New()
		e := NewEncoder(s, nl)
		lits := make([]Lit, len(nodes))
		for i, id := range nodes {
			lits[i] = e.LitOf(id)
		}
		// Fresh cofactor copies of the last node under random cubes, all
		// in the same solver so copies that interfered would show.
		root := nodes[len(nodes)-1]
		var cubes []map[netlist.ID]bool
		var copies []Lit
		for c := 0; c < 3; c++ {
			cube := make(map[netlist.ID]bool)
			for _, b := range boundary {
				if rng.Intn(2) == 0 {
					cube[b] = rng.Intn(2) == 0
				}
			}
			cubes = append(cubes, cube)
			copies = append(copies, e.LitOfFixed(root, cube))
		}

		for m := 0; m < 1<<uint(len(boundary)); m++ {
			assign := make(map[netlist.ID]bool)
			var assumptions []Lit
			for i, b := range boundary {
				v := m>>uint(i)&1 == 1
				assign[b] = v
				assumptions = append(assumptions, MkLit(e.LitOf(b).Var(), !v))
			}
			// The boundary determines every node: the model must agree
			// with simulation everywhere.
			if s.Solve(assumptions...) != Sat {
				t.Fatalf("trial %d mask %d: boundary assignment unsatisfiable", trial, m)
			}
			vals := nl.Eval(assign)
			for i, id := range nodes {
				if litValue(s, lits[i]) != vals[id] {
					t.Fatalf("trial %d mask %d: node %d (%v) encodes %v, simulates %v",
						trial, m, id, nl.Kind(id), litValue(s, lits[i]), vals[id])
				}
			}
			// Each copy is forced to the value simulated with its cube
			// pinned, whatever the shared variables of the pinned signals
			// hold: asserting the opposite must be unsat.
			for c, cube := range cubes {
				pinned := make(map[netlist.ID]bool, len(assign))
				for b, v := range assign {
					pinned[b] = v
				}
				for b, v := range cube {
					pinned[b] = v
				}
				bad := copies[c]
				if nl.Eval(pinned)[root] {
					bad = bad.Neg()
				}
				if s.Solve(append(assumptions, bad)...) != Unsat {
					t.Fatalf("trial %d mask %d: copy %d under %v allows the wrong value", trial, m, c, cube)
				}
			}
		}
	}
}
