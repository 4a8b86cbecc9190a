package truth

// Differential tests pinning the canonical-index fast path to the
// MatchAgainst slow path, plus exhaustive canonicalization checks. The slow
// path is the oracle everywhere: the index must classify exactly the
// functions MatchAgainst accepts, with permutations satisfying the same
// contract.

import (
	"fmt"
	"math/rand"
	"testing"
)

// permutations returns all n! permutations of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	sub := permutations(n - 1)
	for _, p := range sub {
		for i := 0; i <= len(p); i++ {
			q := make([]int, 0, n)
			q = append(q, p[:i]...)
			q = append(q, n-1)
			q = append(q, p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

func TestPermuteFastMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(MaxVars)
		tab := randTable(rng, n)
		p := rng.Perm(n)
		if got, want := tab.Permute(p), tab.permuteSlow(p); got != want {
			t.Fatalf("Permute(%v, %v) = %v, slow path says %v", tab, p, got, want)
		}
	}
}

func TestExpandFastMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 5000; trial++ {
		nt := rng.Intn(MaxVars + 1)
		n := nt + rng.Intn(MaxVars-nt+1)
		tab := randTable(rng, nt)
		m := rng.Perm(n)[:nt] // injective map into 0..n-1
		if got, want := tab.Expand(m, n), tab.expandSlow(m, n); got != want {
			t.Fatalf("Expand(%v, %v, %d) = %v, slow path says %v", tab, m, n, got, want)
		}
	}
}

// TestExpandStretchMatchesSlow checks the strictly increasing maps cut
// enumeration produces: every such map for n <= MaxVars (the subsets of
// 0..n-1 in ascending order), each on random tables.
func TestExpandStretchMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 0; n <= MaxVars; n++ {
		for set := 0; set < 1<<uint(n); set++ {
			var m []int
			for v := 0; v < n; v++ {
				if set>>uint(v)&1 == 1 {
					m = append(m, v)
				}
			}
			for trial := 0; trial < 20; trial++ {
				tab := randTable(rng, len(m))
				if got, want := tab.Expand(m, n), tab.expandSlow(m, n); got != want {
					t.Fatalf("Expand(%v, %v, %d) = %v, slow path says %v", tab, m, n, got, want)
				}
			}
		}
	}
}

// TestCanonExhaustive4Var sweeps every 4-variable function: the canon of
// all 24 permuted variants must agree, and every returned permutation must
// reproduce the canon. Short mode samples the space.
func TestCanonExhaustive4Var(t *testing.T) {
	perms := permutations(4)
	step := uint64(1)
	if testing.Short() {
		step = 31
	}
	for bits := uint64(0); bits < 1<<16; bits += step {
		f := Table{Bits: bits, N: 4}
		canon, pf := f.Canon()
		if f.Permute(pf).Bits != canon.Bits {
			t.Fatalf("f=%v: Permute(canon perm) != canon", f)
		}
		for _, sigma := range perms {
			g := f.Permute(sigma)
			cg, pg := g.Canon()
			if cg.Bits != canon.Bits {
				t.Fatalf("f=%v sigma=%v: canon(g)=%v != canon(f)=%v", f, sigma, cg, canon)
			}
			if g.Permute(pg).Bits != cg.Bits {
				t.Fatalf("f=%v sigma=%v: g.Permute(canon perm) != canon", f, sigma)
			}
		}
	}
}

// lookupClasses extracts the matched class sequence of an index lookup.
func lookupClasses(hits []Hit) []Class {
	var out []Class
	for _, h := range hits {
		out = append(out, h.Entry.Class)
	}
	return out
}

// slowClasses runs the MatchAgainst oracle over a library.
func slowClasses(t Table, lib []Entry) ([]Class, map[Class][]int) {
	var classes []Class
	perms := make(map[Class][]int)
	for _, e := range lib {
		if e.Table.N != t.N {
			continue
		}
		if p, ok := t.MatchAgainst(e.Table); ok {
			classes = append(classes, e.Class)
			perms[e.Class] = p
		}
	}
	return classes, perms
}

func sameClasses(a, b []Class) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkDifferential asserts that the index and the MatchAgainst oracle
// agree on t: same accepted entries, contract-satisfying permutations, and
// identical permutations whenever the hit is Unique.
func checkDifferential(t *testing.T, ix *Index, lib []Entry, tab Table) {
	t.Helper()
	hits := ix.Lookup(tab)
	want, oraclePerms := slowClasses(tab, lib)
	if !sameClasses(lookupClasses(hits), want) {
		t.Fatalf("t=%v: index classes %v, oracle classes %v", tab, lookupClasses(hits), want)
	}
	for _, h := range hits {
		if h.Entry.Table.Permute(h.Perm).Bits != tab.Bits {
			t.Fatalf("t=%v class=%v: hit perm %v does not reproduce t", tab, h.Entry.Class, h.Perm)
		}
		if h.Unique {
			op := oraclePerms[h.Entry.Class]
			for j := range h.Perm {
				if h.Perm[j] != op[j] {
					t.Fatalf("t=%v class=%v: unique hit perm %v != oracle perm %v",
						tab, h.Entry.Class, h.Perm, op)
				}
			}
		}
	}
}

// TestIndexExhaustiveSmallArity pins the index to the oracle on every
// 2-variable (16) and 3-variable (256) function — the arities where the
// default library actually lives.
func TestIndexExhaustiveSmallArity(t *testing.T) {
	lib := Library()
	ix := NewIndex(lib)
	for n := 1; n <= 3; n++ {
		for bits := uint64(0); bits < 1<<(1<<uint(n)); bits++ {
			checkDifferential(t, ix, lib, Table{Bits: bits, N: n})
		}
	}
}

// TestIndexExhaustive4VarMisses sweeps all 4-variable functions: the
// library has no 4-input entry, so every lookup must miss, exactly like the
// oracle (this also exercises the arity fast-out).
func TestIndexExhaustive4VarMisses(t *testing.T) {
	lib := Library()
	ix := NewIndex(lib)
	step := uint64(1)
	if testing.Short() {
		step = 13
	}
	for bits := uint64(0); bits < 1<<16; bits += step {
		tab := Table{Bits: bits, N: 4}
		if hits := ix.Lookup(tab); hits != nil {
			t.Fatalf("4-var function %v hit %v; library has no 4-input entry", tab, lookupClasses(hits))
		}
		if cls, _ := slowClasses(tab, lib); cls != nil {
			t.Fatalf("oracle matched a 4-var function %v: %v", tab, cls)
		}
	}
}

// TestIndexRandomWideArity cross-checks random 5- and 6-variable functions
// (almost all misses) and permuted library entries (guaranteed hits,
// including the 6-input mux4) against the oracle.
func TestIndexRandomWideArity(t *testing.T) {
	lib := Library()
	ix := NewIndex(lib)
	rng := rand.New(rand.NewSource(42))
	trials := 4000
	if testing.Short() {
		trials = 500
	}
	for trial := 0; trial < trials; trial++ {
		n := 5 + rng.Intn(2)
		checkDifferential(t, ix, lib, randTable(rng, n))
	}
	for trial := 0; trial < 200; trial++ {
		for _, e := range lib {
			g := e.Table.Permute(rng.Perm(e.Table.N))
			checkDifferential(t, ix, lib, g)
			if len(ix.Lookup(g)) == 0 {
				t.Fatalf("permuted %v entry missed the index", e.Class)
			}
		}
	}
}

// unfilteredLookup is Lookup without the invariant prefilter: Canon()
// plus the hash probe for every table of an indexed arity.
func unfilteredLookup(ix *Index, t Table) []Hit {
	if !ix.hasArity(t.N) {
		return nil
	}
	canon, pt := t.Canon()
	return ix.lookupCanon(canon, pt, t.N)
}

// TestLookupPrefilterExact pins the invariant prefilter to the unfiltered
// lookup on every 1-, 2- and 3-variable table, and on every library entry
// and its complement under all n! input permutations (720 for mux4): same
// hits, same permutations, same flags.
func TestLookupPrefilterExact(t *testing.T) {
	lib := Library()
	var tables []Table
	for n := 1; n <= 3; n++ {
		for bits := uint64(0); bits < 1<<(1<<uint(n)); bits++ {
			tables = append(tables, Table{Bits: bits, N: n})
		}
	}
	for _, e := range lib {
		for _, p := range permutations(e.Table.N) {
			g := e.Table.Permute(p)
			tables = append(tables, g, g.Not())
		}
	}
	ix := NewIndex(lib)
	hits := 0
	for _, tab := range tables {
		got, want := ix.Lookup(tab), unfilteredLookup(ix, tab)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("t=%v: Lookup %v, unfiltered %v", tab, got, want)
		}
		if len(got) > 0 {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no table hit")
	}
}

// TestIndexUniqueFlag: entries with non-trivial automorphisms (fully
// symmetric slices like ha-sum) must not be flagged Unique; asymmetric
// entries like mux2 must be.
func TestIndexUniqueFlag(t *testing.T) {
	ix := NewIndex(Library())
	wantUnique := map[Class]bool{ClassMux2: true, ClassMux2Inv: true, ClassAndNot: true, ClassOrNot: true}
	// Fully symmetric slices (ha-sum, fa-carry, ...) and mux4 — whose
	// s0↔s1 swap composed with d1↔d2 is an automorphism — admit several
	// valid permutations.
	wantAmbiguous := map[Class]bool{ClassHASum: true, ClassHACarry: true,
		ClassFASum: true, ClassFACarry: true, ClassMux4: true}
	for _, e := range Library() {
		hits := ix.Lookup(e.Table)
		if len(hits) == 0 {
			t.Fatalf("%v missed its own index", e.Class)
		}
		for _, h := range hits {
			if h.Entry.Class != e.Class {
				continue
			}
			if wantUnique[e.Class] && !h.Unique {
				t.Errorf("%v should have a unique permutation", e.Class)
			}
			if wantAmbiguous[e.Class] && h.Unique {
				t.Errorf("%v is symmetric and must not be flagged Unique", e.Class)
			}
		}
	}
}
