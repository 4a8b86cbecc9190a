package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"

	"netlistre/internal/netlist"
	"netlistre/internal/truth"
)

func TestTerminalIdentities(t *testing.T) {
	m := New(2)
	a := m.Var(0)
	if m.And(a, True) != a || m.And(a, False) != False {
		t.Error("And identities broken")
	}
	if m.Or(a, False) != a || m.Or(a, True) != True {
		t.Error("Or identities broken")
	}
	if m.Not(m.Not(a)) != a {
		t.Error("double negation broken")
	}
	if m.Xor(a, a) != False || m.Xnor(a, a) != True {
		t.Error("xor identities broken")
	}
}

func TestCanonicity(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	// (a&b)|c  built two different ways must produce the same Ref.
	f1 := m.Or(m.And(a, b), c)
	f2 := m.Not(m.And(m.Not(m.And(a, b)), m.Not(c)))
	if f1 != f2 {
		t.Error("equivalent constructions yield different refs")
	}
}

// tableToBDD builds the BDD of a truth table for cross-validation.
func tableToBDD(m *Manager, tt truth.Table) Ref {
	f := False
	for r := uint(0); r < 1<<uint(tt.N); r++ {
		if !tt.Eval(r) {
			continue
		}
		cube := True
		for i := 0; i < tt.N; i++ {
			if r>>uint(i)&1 == 1 {
				cube = m.And(cube, m.Var(i))
			} else {
				cube = m.And(cube, m.NVar(i))
			}
		}
		f = m.Or(f, cube)
	}
	return f
}

// TestAgainstTruthTables is the core property: BDD operations agree with
// truth-table semantics on random functions.
func TestAgainstTruthTables(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(5)
		ta := truth.Table{Bits: rng.Uint64() & truth.Mask(n), N: n}
		tb := truth.Table{Bits: rng.Uint64() & truth.Mask(n), N: n}
		m := New(n)
		fa, fb := tableToBDD(m, ta), tableToBDD(m, tb)
		checks := []struct {
			name string
			ref  Ref
			tt   truth.Table
		}{
			{"and", m.And(fa, fb), ta.And(tb)},
			{"or", m.Or(fa, fb), ta.Or(tb)},
			{"xor", m.Xor(fa, fb), ta.Xor(tb)},
			{"not", m.Not(fa), ta.Not()},
		}
		for _, c := range checks {
			for r := uint(0); r < 1<<uint(n); r++ {
				assign := make(map[int]bool)
				for i := 0; i < n; i++ {
					assign[i] = r>>uint(i)&1 == 1
				}
				if m.Eval(c.ref, assign) != c.tt.Eval(r) {
					t.Fatalf("trial %d: %s disagrees with truth table at row %d", trial, c.name, r)
				}
			}
		}
	}
}

func TestRestrict(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f := m.Or(m.And(a, b), c)
	if m.Restrict(f, 2, true) != True {
		t.Error("f|c=1 should be True")
	}
	if m.Restrict(f, 2, false) != m.And(a, b) {
		t.Error("f|c=0 should be a&b")
	}
	g := m.RestrictCube(f, map[int]bool{0: true, 2: false})
	if g != b {
		t.Error("f|a=1,c=0 should be b")
	}
}

func TestConstrainAgreesOnCareSet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(4)
		tf := truth.Table{Bits: rng.Uint64() & truth.Mask(n), N: n}
		tc := truth.Table{Bits: rng.Uint64() & truth.Mask(n), N: n}
		if ok, _ := tc.IsConst(); ok {
			continue
		}
		m := New(n)
		f, c := tableToBDD(m, tf), tableToBDD(m, tc)
		fc := m.Constrain(f, c)
		for r := uint(0); r < 1<<uint(n); r++ {
			if !tc.Eval(r) {
				continue
			}
			assign := make(map[int]bool)
			for i := 0; i < n; i++ {
				assign[i] = r>>uint(i)&1 == 1
			}
			if m.Eval(fc, assign) != tf.Eval(r) {
				t.Fatalf("constrain disagrees with f on care set at row %d", r)
			}
		}
	}
}

func TestExists(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f := m.Or(m.And(a, b), m.And(m.Not(a), c))
	// ∃a. f = b | c
	g := m.Exists(f, m.Var(0))
	if g != m.Or(b, c) {
		t.Error("Exists over a is wrong")
	}
	// Quantifying everything yields True for satisfiable f.
	all := m.Cube([]int{0, 1, 2})
	if m.Exists(f, all) != True {
		t.Error("Exists over all vars of sat function should be True")
	}
	if m.Exists(False, all) != False {
		t.Error("Exists of False should be False")
	}
}

func TestSatCountAndAnySat(t *testing.T) {
	m := New(4)
	a, b := m.Var(0), m.Var(1)
	f := m.And(a, b) // 1/4 of the space: 4 of 16 assignments
	if got := m.SatCount(f); got != 4 {
		t.Errorf("SatCount = %v, want 4", got)
	}
	sat := m.AnySat(f)
	if sat == nil || !sat[0] || !sat[1] {
		t.Errorf("AnySat = %v", sat)
	}
	if m.AnySat(False) != nil {
		t.Error("AnySat(False) should be nil")
	}
	if got := m.SatCount(True); got != 16 {
		t.Errorf("SatCount(True) = %v, want 16", got)
	}
}

func TestSupport(t *testing.T) {
	m := New(5)
	f := m.Or(m.And(m.Var(1), m.Var(3)), m.Var(4))
	sup := m.Support(f)
	want := []int{1, 3, 4}
	if len(sup) != len(want) {
		t.Fatalf("support = %v, want %v", sup, want)
	}
	for i := range want {
		if sup[i] != want[i] {
			t.Fatalf("support = %v, want %v", sup, want)
		}
	}
}

func TestOverflowRecovery(t *testing.T) {
	m := New(40)
	m.Limit = 64
	err := m.Run(func() {
		f := False
		// A function designed to blow past 64 nodes.
		for i := 0; i < 20; i++ {
			f = m.Xor(f, m.And(m.Var(i), m.Var((i+7)%40)))
		}
	})
	if err != ErrOverflow {
		t.Errorf("err = %v, want ErrOverflow", err)
	}
}

func TestBuilderAgainstEval(t *testing.T) {
	// Build a small sequential circuit and verify Builder's BDDs against
	// netlist.Eval on all boundary assignments.
	nl := netlist.New("t")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	l := nl.AddLatch(a)
	g1 := nl.AddGate(netlist.Xor, a, b)
	g2 := nl.AddGate(netlist.And, g1, l)
	g3 := nl.AddGate(netlist.Nor, g2, b)

	m := New(0)
	bld := NewBuilder(m, nl)
	refs := map[netlist.ID]Ref{g1: bld.Build(g1), g2: bld.Build(g2), g3: bld.Build(g3)}

	for mask := 0; mask < 8; mask++ {
		assign := map[netlist.ID]bool{
			a: mask&1 != 0, b: mask&2 != 0, l: mask&4 != 0,
		}
		vals := nl.Eval(assign)
		bddAssign := make(map[int]bool)
		for id, v := range assign {
			if vi, ok := bld.HasVar(id); ok {
				bddAssign[vi] = v
			}
		}
		for id, r := range refs {
			if m.Eval(r, bddAssign) != vals[id] {
				t.Fatalf("node %d: BDD disagrees with Eval at mask %d", id, mask)
			}
		}
	}
}

func TestBuilderSharesVariables(t *testing.T) {
	nl := netlist.New("t")
	a := nl.AddInput("a")
	g1 := nl.AddGate(netlist.Not, a)
	g2 := nl.AddGate(netlist.Buf, a)
	m := New(0)
	bld := NewBuilder(m, nl)
	r1 := bld.Build(g1)
	r2 := bld.Build(g2)
	if m.Not(r1) != r2 {
		t.Error("cones over the same input do not share variables")
	}
}

func TestITEQuickProperty(t *testing.T) {
	// ITE(f,g,h) == (f&g) | (~f&h) on random 3-var functions.
	m := New(3)
	build := func(bits uint64) Ref {
		return tableToBDD(m, truth.Table{Bits: bits & truth.Mask(3), N: 3})
	}
	prop := func(fb, gb, hb uint64) bool {
		f, g, h := build(fb), build(gb), build(hb)
		lhs := m.ITE(f, g, h)
		rhs := m.Or(m.And(f, g), m.And(m.Not(f), h))
		return lhs == rhs
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBuilderVarOrderFaninZeroFirst(t *testing.T) {
	// Variables are numbered in depth-first order with fanin 0 visited
	// first, including Leaf cuts; the RAM read check's run time depends
	// on this order.
	nl := netlist.New("t")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	c := nl.AddInput("c")
	d := nl.AddInput("d")
	cut := nl.AddGate(netlist.Or, d, a)
	h := nl.AddGate(netlist.Xor, b, a)
	g := nl.AddGate(netlist.And, h, c, cut, nl.AddConst(true))
	bld := NewBuilder(New(0), nl)
	bld.Leaf = func(id netlist.ID) bool { return id == cut }
	bld.Build(g)
	want := []netlist.ID{b, a, c, cut}
	if n := bld.M.NumVars(); n != len(want) {
		t.Fatalf("%d variables, want %d", n, len(want))
	}
	for v, id := range want {
		if got := bld.SignalOf(v); got != id {
			t.Errorf("variable %d is node %d, want %d", v, got, id)
		}
	}
}

func TestBuilderLeafAgainstEval(t *testing.T) {
	// Random LUT netlists built with a random Leaf set must agree with an
	// evaluator that treats the cut nodes as free inputs. Constants in the
	// Leaf set fold rather than cut.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		nl := netlist.New("r")
		pool := []netlist.ID{nl.AddConst(false), nl.AddConst(true)}
		for i := 0; i < 4; i++ {
			pool = append(pool, nl.AddInput(string(rune('a'+i))))
		}
		pool = append(pool, nl.AddLatch(pool[2]))
		for i := 0; i < 16; i++ {
			fan := make([]netlist.ID, 1+rng.Intn(4))
			for j := range fan {
				fan[j] = pool[rng.Intn(len(pool))]
			}
			if rng.Intn(4) == 0 {
				pool = append(pool, nl.AddGate(netlist.Xor, append(fan, pool[rng.Intn(len(pool))])...))
				continue
			}
			mask := rng.Uint64() & (uint64(1)<<(uint(1)<<uint(len(fan))) - 1)
			pool = append(pool, nl.AddLut(mask, fan...))
		}
		cut := make(map[netlist.ID]bool)
		for _, id := range pool {
			if rng.Intn(4) == 0 {
				cut[id] = true
			}
		}
		free := func(id netlist.ID) bool {
			k := nl.Kind(id)
			return k.IsConeInput() || cut[id] && k != netlist.Const0 && k != netlist.Const1
		}

		m := New(0)
		bld := NewBuilder(m, nl)
		bld.Leaf = func(id netlist.ID) bool { return cut[id] }
		refs := make(map[netlist.ID]Ref, len(pool))
		for _, id := range pool {
			refs[id] = bld.Build(id)
		}
		for _, id := range pool {
			if _, ok := bld.HasVar(id); ok != free(id) {
				t.Fatalf("trial %d: node %d (%v, cut %v) has variable %v", trial, id, nl.Kind(id), cut[id], ok)
			}
		}

		for sample := 0; sample < 128; sample++ {
			vals := make(map[netlist.ID]bool, len(pool))
			bddAssign := make(map[int]bool)
			for _, id := range nl.TopoOrder() {
				node := nl.Node(id)
				switch {
				case free(id):
					vals[id] = rng.Intn(2) == 0
					v, _ := bld.HasVar(id)
					bddAssign[v] = vals[id]
				case node.Kind == netlist.Const0 || node.Kind == netlist.Const1:
					vals[id] = node.Kind == netlist.Const1
				default:
					in := make([]uint64, len(node.Fanin))
					for j, f := range node.Fanin {
						if vals[f] {
							in[j] = 1
						}
					}
					vals[id] = netlist.EvalWord(node.Kind, node.Mask, in)&1 == 1
				}
			}
			for id, r := range refs {
				if m.Eval(r, bddAssign) != vals[id] {
					t.Fatalf("trial %d sample %d: node %d disagrees with the cut evaluator", trial, sample, id)
				}
			}
		}
	}
}
