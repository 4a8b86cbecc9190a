package bdd

import (
	"math/bits"
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
	if m.Restrict(m.Restrict(f, 0, true), 2, false) != b {
		t.Error("f|a=1,c=0 should be b")
	}
}

func TestCompose(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f := m.Xor(a, c)
	if got := m.Compose(f, 2, m.And(a, b)); got != m.And(a, m.Not(b)) {
		t.Error("a ^ c with c := a&b should be a&~b")
	}
	if m.Compose(f, 1, c) != f {
		t.Error("substituting a variable f does not read should leave f")
	}
}

func TestLiteral(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	for _, c := range []struct {
		f       Ref
		v       int
		pos, ok bool
	}{
		{m.Var(2), 2, true, true},
		{m.NVar(1), 1, false, true},
		{m.Not(m.Not(a)), 0, true, true},
		{m.And(a, b), 0, false, false},
		{m.Xor(a, b), 0, false, false},
		{True, 0, false, false},
		{False, 0, false, false},
	} {
		v, pos, ok := m.Literal(c.f)
		if ok != c.ok || ok && (v != c.v || pos != c.pos) {
			t.Errorf("Literal(%d) = %d, %v, %v; want %d, %v, %v", c.f, v, pos, ok, c.v, c.pos, c.ok)
		}
	}
}

func TestExclusive(t *testing.T) {
	m := New(2)
	a, b := m.Var(0), m.Var(1)
	minterms := []Ref{m.And(m.Not(a), m.Not(b)), m.And(a, m.Not(b)), m.And(m.Not(a), b), m.And(a, b)}
	if !m.Exclusive(minterms) || !m.Exclusive(nil) {
		t.Error("disjoint minterms are not exclusive")
	}
	if m.Exclusive([]Ref{m.And(a, b), a}) {
		t.Error("a∧b and a overlap")
	}
	if m.Exclusive([]Ref{a, False}) {
		t.Error("an unsatisfiable function passed")
	}
}

// TestPopCount checks the count word against the number of true inputs on
// every assignment of up to six variables.
func TestPopCount(t *testing.T) {
	for n := 0; n <= 6; n++ {
		m := New(n)
		xs := make([]Ref, n)
		for i := range xs {
			xs[i] = m.Var(i)
		}
		count := m.PopCount(xs)
		if want := bits.Len(uint(n)); len(count) != want {
			t.Fatalf("n=%d: %d count bits, want %d", n, len(count), want)
		}
		for r := 0; r < 1<<n; r++ {
			assign := make(map[int]bool)
			for i := 0; i < n; i++ {
				assign[i] = r>>i&1 == 1
			}
			for j, c := range count {
				if m.Eval(c, assign) != (bits.OnesCount(uint(r))>>j&1 == 1) {
					t.Fatalf("n=%d row %d: count bit %d wrong", n, r, j)
				}
			}
		}
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

// TestResetMatchesFresh: a manager reset after one build, even one that
// overflowed its limit, builds the next function with the same Refs and
// node count as a fresh manager, and keeps its Limit.
func TestResetMatchesFresh(t *testing.T) {
	build := func(m *Manager) Ref {
		vs := make([]Ref, 6)
		for i := range vs {
			vs[i] = m.Var(m.AddVar())
		}
		return m.Or(m.And(vs[0], m.Xor(vs[1], vs[2])), m.Restrict(m.Xnor(vs[3], vs[4]), 3, true))
	}
	fresh := New(0)
	want := build(fresh)

	m := New(0)
	m.Limit = 40
	if err := m.Run(func() {
		for i := 0; i < 12; i++ {
			m.AddVar()
		}
		f := True
		for i := 0; i < 12; i += 2 {
			f = m.And(f, m.Xor(m.Var(i), m.Var(i+1)))
		}
		m.Xor(f, m.Var(3))
	}); err != ErrOverflow {
		t.Fatalf("first build: err %v, want ErrOverflow", err)
	}
	m.Reset()
	if m.Limit != 40 || m.NumVars() != 0 || m.Size() != 2 {
		t.Fatalf("after Reset: limit %d, %d vars, %d nodes; want 40, 0, 2", m.Limit, m.NumVars(), m.Size())
	}
	m.Limit = 0
	if got := build(m); got != want || m.Size() != fresh.Size() {
		t.Errorf("after Reset: ref %d over %d nodes; fresh manager %d over %d", got, m.Size(), want, fresh.Size())
	}
}

// TestBuilderExpand: a gate cut as a Leaf builds as its variable, and
// Expand gives its own function over the cut, without memoizing it.
func TestBuilderExpand(t *testing.T) {
	nl := netlist.New("t")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	c := nl.AddInput("c")
	g := nl.AddGate(netlist.And, a, b)
	h := nl.AddGate(netlist.Or, g, c)
	m := New(0)
	bld := NewBuilder(m, nl)
	bld.Leaf = func(id netlist.ID) bool { return id == g }
	vg := m.Var(bld.VarOf(g))
	if bld.Build(h) != m.Or(vg, m.Var(bld.VarOf(c))) {
		t.Error("h is not built over the cut at g")
	}
	want := m.And(m.Var(bld.VarOf(a)), m.Var(bld.VarOf(b)))
	if bld.Expand(g) != want {
		t.Error("Expand(g) is not a∧b")
	}
	if bld.Build(g) != vg || bld.Expand(a) != m.Var(bld.VarOf(a)) {
		t.Error("Expand changed what Build returns")
	}
}

// TestBuilderResetMatchesFresh: a builder reset with its manager builds
// like a fresh builder on a fresh manager, under a new Leaf rule too.
func TestBuilderResetMatchesFresh(t *testing.T) {
	nl := netlist.New("t")
	a := nl.AddInput("a")
	b := nl.AddInput("b")
	g := nl.AddGate(netlist.And, a, b)
	h := nl.AddGate(netlist.Xor, g, a)
	cut := func(id netlist.ID) bool { return id == g }

	bld := NewBuilder(New(0), nl)
	bld.Build(h)
	bld.M.Reset()
	bld.Reset()
	bld.Leaf = cut
	got := bld.Build(h)

	fresh := NewBuilder(New(0), nl)
	fresh.Leaf = cut
	if want := fresh.Build(h); got != want || bld.M.NumVars() != 2 || bld.SignalOf(0) != g {
		t.Errorf("after Reset: ref %d over %d vars; fresh builder %d", got, bld.M.NumVars(), want)
	}
}
