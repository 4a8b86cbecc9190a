package truth

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVarTables(t *testing.T) {
	for n := 1; n <= MaxVars; n++ {
		for i := 0; i < n; i++ {
			v := Var(i, n)
			for r := uint(0); r < 1<<uint(n); r++ {
				if v.Eval(r) != (r>>uint(i)&1 == 1) {
					t.Fatalf("Var(%d,%d).Eval(%d) wrong", i, n, r)
				}
			}
		}
	}
}

func TestBooleanOps(t *testing.T) {
	a, b := Var(0, 3), Var(1, 3)
	and := a.And(b)
	or := a.Or(b)
	xor := a.Xor(b)
	for r := uint(0); r < 8; r++ {
		av, bv := a.Eval(r), b.Eval(r)
		if and.Eval(r) != (av && bv) || or.Eval(r) != (av || bv) || xor.Eval(r) != (av != bv) {
			t.Fatalf("boolean op mismatch at row %d", r)
		}
	}
	if nt := a.Not(); nt.Bits != ^a.Bits&Mask(3) {
		t.Error("Not is wrong")
	}
}

func TestCofactorAndDepends(t *testing.T) {
	a, b, c := Var(0, 3), Var(1, 3), Var(2, 3)
	f := a.And(b).Or(c) // ab + c
	f1 := f.Cofactor(2, true)
	if ok, v := f1.IsConst(); !ok || !v {
		t.Errorf("f|c=1 should be constant 1, got %v", f1)
	}
	f0 := f.Cofactor(2, false)
	if f0.Bits != a.And(b).Bits {
		t.Errorf("f|c=0 should be ab, got %v", f0)
	}
	if !f.DependsOn(0) || !f.DependsOn(1) || !f.DependsOn(2) {
		t.Error("f should depend on all three variables")
	}
	g := a.Or(a.Not()) // constant
	if g.DependsOn(0) {
		t.Error("tautology should not depend on its variable")
	}
}

// maskVars lists the variables set in a support mask, ascending.
func maskVars(m uint8) []int {
	var vs []int
	for v := 0; v < MaxVars; v++ {
		if m>>uint(v)&1 == 1 {
			vs = append(vs, v)
		}
	}
	return vs
}

func TestShrink(t *testing.T) {
	// f over 4 vars depending only on x1 and x3: x1 & x3.
	f := Var(1, 4).And(Var(3, 4))
	s, sup := f.Shrink()
	orig := maskVars(sup)
	if s.N != 2 {
		t.Fatalf("shrunk arity = %d, want 2", s.N)
	}
	if len(orig) != 2 || orig[0] != 1 || orig[1] != 3 {
		t.Fatalf("orig map = %v, want [1 3]", orig)
	}
	want := Var(0, 2).And(Var(1, 2))
	if s.Bits != want.Bits {
		t.Errorf("shrunk table = %v, want %v", s, want)
	}
}

// TestShrinkMatchesRowLoop checks Shrink on functions with vacuous
// variables against evaluating t row by row with the vacuous variables at
// 0, its support mask against Support, and Support against DependsOn.
func TestShrinkMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(MaxVars + 1)
		k := rng.Intn(n + 1)
		f := randTable(rng, k).Expand(rng.Perm(n)[:k], n)
		s, mask := f.Shrink()
		orig := maskVars(mask)
		sup := f.Support()
		var deps []int
		for i := 0; i < n; i++ {
			if f.DependsOn(i) {
				deps = append(deps, i)
			}
		}
		if fmt.Sprint(sup) != fmt.Sprint(deps) {
			t.Fatalf("%v: support %v, DependsOn says %v", f, sup, deps)
		}
		if len(orig) != len(sup) || s.N != len(sup) {
			t.Fatalf("%v: shrunk to %v with origVar %v, support %v", f, s, orig, sup)
		}
		for j := range sup {
			if orig[j] != sup[j] {
				t.Fatalf("%v: origVar %v, support %v", f, orig, sup)
			}
		}
		for r := uint(0); r < 1<<uint(s.N); r++ {
			var full uint
			for j, v := range orig {
				full |= (r >> uint(j) & 1) << uint(v)
			}
			if s.Eval(r) != f.Eval(full) {
				t.Fatalf("%v: shrunk %v row %d differs from row %d", f, s, r, full)
			}
		}
		if s.Bits&^Mask(s.N) != 0 {
			t.Fatalf("%v: shrunk %v has bits beyond its rows", f, s)
		}
	}
}

func TestPermute(t *testing.T) {
	// f(x0,x1,x2) = x0 & ~x2. Permuting with p=[2,0,1] gives
	// g(x0,x1,x2) = f(x2,x0,x1) = x2 & ~x1.
	f := Var(0, 3).And(Var(2, 3).Not())
	g := f.Permute([]int{2, 0, 1})
	want := Var(2, 3).And(Var(1, 3).Not())
	if g.Bits != want.Bits {
		t.Errorf("permute = %v, want %v", g, want)
	}
}

func randTable(rng *rand.Rand, n int) Table {
	return Table{Bits: rng.Uint64() & Mask(n), N: n}
}

func randPerm(rng *rand.Rand, n int) []int {
	p := rng.Perm(n)
	return p
}

func TestCanonInvariantUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(MaxVars)
		f := randTable(rng, n)
		p := randPerm(rng, n)
		g := f.Permute(p)
		cf, pf := f.Canon()
		cg, pg := g.Canon()
		if cf.Bits != cg.Bits {
			t.Fatalf("canon not invariant: f=%v p=%v g=%v canon(f)=%v canon(g)=%v",
				f, p, g, cf, cg)
		}
		if f.Permute(pf).Bits != cf.Bits {
			t.Fatalf("returned permutation does not produce canon: f=%v perm=%v", f, pf)
		}
		if g.Permute(pg).Bits != cg.Bits {
			t.Fatalf("returned permutation does not produce canon (g)")
		}
	}
}

func TestCanonDistinguishesInequivalentFunctions(t *testing.T) {
	// and2 and or2 are not permutation equivalent.
	and2 := Var(0, 2).And(Var(1, 2))
	or2 := Var(0, 2).Or(Var(1, 2))
	ca, _ := and2.Canon()
	co, _ := or2.Canon()
	if ca.Bits == co.Bits {
		t.Error("canon(and2) == canon(or2)")
	}
}

func TestMatchAgainst(t *testing.T) {
	lib := Library()
	var mux Entry
	for _, e := range lib {
		if e.Class == ClassMux2 {
			mux = e
		}
	}
	// Build t(x0,x1,x2) = x0 ? x2 : x1  == mux with d0=x1, d1=x2, s=x0.
	s, d0, d1 := Var(0, 3), Var(1, 3), Var(2, 3)
	f := s.And(d1).Or(s.Not().And(d0))
	perm, ok := f.MatchAgainst(mux.Table)
	if !ok {
		t.Fatal("mux did not match")
	}
	// perm[j] = f-variable playing mux argument j (d0, d1, s).
	if perm[0] != 1 || perm[1] != 2 || perm[2] != 0 {
		t.Errorf("perm = %v, want [1 2 0]", perm)
	}
	// An and2 must not match the mux.
	if _, ok := Var(0, 3).And(Var(1, 3)).MatchAgainst(mux.Table); ok {
		t.Error("and2 matched mux")
	}
}

func TestMatchAgainstProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(bitsRaw uint64, nRaw uint8) bool {
		n := int(nRaw)%MaxVars + 1
		ref := Table{Bits: bitsRaw & Mask(n), N: n}
		p := randPerm(rng, n)
		g := ref.Permute(p)
		perm, ok := g.MatchAgainst(ref)
		if !ok {
			return false
		}
		return ref.Permute(perm).Bits == g.Bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLibraryEntriesDistinctUnderPermutation(t *testing.T) {
	lib := Library()
	seen := make(map[string]Class)
	for _, e := range lib {
		c, _ := e.Table.Canon()
		key := c.String()
		if prev, dup := seen[key]; dup {
			t.Errorf("library entries %v and %v are permutation equivalent", prev, e.Class)
		}
		seen[key] = e.Class
		if len(e.ArgNames) != e.Table.N {
			t.Errorf("%v: %d arg names for %d vars", e.Class, len(e.ArgNames), e.Table.N)
		}
		// Every library function must depend on all of its arguments.
		if sup := e.Table.Support(); len(sup) != e.Table.N {
			t.Errorf("%v depends only on %v", e.Class, sup)
		}
	}
}

func TestMux4Entry(t *testing.T) {
	var m4 Entry
	for _, e := range Library() {
		if e.Class == ClassMux4 {
			m4 = e
		}
	}
	for r := uint(0); r < 64; r++ {
		sel := (r >> 4) & 3
		want := r>>(sel)&1 == 1
		if m4.Table.Eval(r) != want {
			t.Fatalf("mux4 row %d = %v, want %v", r, m4.Table.Eval(r), want)
		}
	}
}

func TestConstAndOnes(t *testing.T) {
	c1 := Const(true, 4)
	if ok, v := c1.IsConst(); !ok || !v {
		t.Error("Const(true) not detected")
	}
	if c1.Ones() != 16 {
		t.Errorf("Const(true,4).Ones() = %d", c1.Ones())
	}
	if Var(0, 4).Ones() != 8 {
		t.Error("Var ones wrong")
	}
}
