package truth

// FuzzCanon drives random (bits, arity, permutation) triples through the
// canonicalization and index machinery: Canon must be invariant under input
// permutation, and so must the prefilter's invariantKey; returned
// permutations must reproduce the canon, Permute must round-trip through
// its inverse, the canonical index must agree with the MatchAgainst oracle,
// and every hit's key must be one the index recorded — all without
// panicking. The seed corpus contains
// every library entry, so `go test` alone already covers the whole library.

import "testing"

// fuzzPerm derives a permutation of 0..n-1 from a seed with a Fisher-Yates
// shuffle over a tiny deterministic LCG (no math/rand: the corpus must stay
// stable across Go releases).
func fuzzPerm(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s := seed
	for i := n - 1; i > 0; i-- {
		s = s*6364136223846793005 + 1442695040888963407
		j := int(s>>33) % (i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func FuzzCanon(f *testing.F) {
	for i, e := range Library() {
		f.Add(e.Table.Bits, uint8(e.Table.N), uint64(i))
	}
	f.Add(uint64(0), uint8(1), uint64(0))
	f.Add(^uint64(0), uint8(6), uint64(99))

	lib := Library()
	ix := NewIndex(lib)

	f.Fuzz(func(t *testing.T, bitsRaw uint64, nRaw uint8, permSeed uint64) {
		n := int(nRaw)%MaxVars + 1
		tab := Table{Bits: bitsRaw & Mask(n), N: n}
		p := fuzzPerm(permSeed, n)

		// Permute round-trips through its inverse.
		inv := make([]int, n)
		for j, v := range p {
			inv[v] = j
		}
		g := tab.Permute(p)
		if back := g.Permute(inv); back.Bits != tab.Bits {
			t.Fatalf("t=%v p=%v: inverse permute gave %v", tab, p, back)
		}

		// Canon is permutation-invariant and its permutation reproduces it.
		ct, pt := tab.Canon()
		cg, pg := g.Canon()
		if ct.Bits != cg.Bits {
			t.Fatalf("t=%v p=%v: canon not invariant (%v vs %v)", tab, p, ct, cg)
		}
		if tab.Permute(pt).Bits != ct.Bits || g.Permute(pg).Bits != cg.Bits {
			t.Fatalf("t=%v: canon permutation does not reproduce canon", tab)
		}

		// The prefilter key is permutation-invariant too.
		if invariantKey(tab) != invariantKey(g) {
			t.Fatalf("t=%v p=%v: invariant key not invariant", tab, p)
		}

		// Index lookups agree with the MatchAgainst oracle on both tables,
		// hit permutations honor their contract, and every hit passed the
		// prefilter on a recorded key.
		for _, cand := range []Table{tab, g} {
			hits := ix.Lookup(cand)
			oracle, _ := slowClasses(cand, lib)
			if !sameClasses(lookupClasses(hits), oracle) {
				t.Fatalf("t=%v: index %v, oracle %v", cand, lookupClasses(hits), oracle)
			}
			for _, h := range hits {
				if h.Entry.Table.Permute(h.Perm).Bits != cand.Bits {
					t.Fatalf("t=%v: hit perm %v broken", cand, h.Perm)
				}
				if !ix.inv[invariantKey(cand)] {
					t.Fatalf("t=%v: hit whose key the index lacks", cand)
				}
			}
		}
	})
}
