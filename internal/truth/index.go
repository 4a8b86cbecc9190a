package truth

// This file implements the canonical-form library index: the fast path of
// permutation-independent Boolean matching (Section II-A). Instead of
// searching for a permutation per library entry (MatchAgainst), the index
// precomputes Canon() for every entry once; classifying a candidate
// function then costs one Canon() plus one hash probe, and the leaf→formal-
// argument correspondence is recovered by composing the stored entry
// permutation with the inverse of the candidate's canonizing permutation.
//
// Soundness and completeness relative to the slow path follow from Canon()
// being a true canonical form: canon(f) == canon(g) iff f and g are equal
// up to input permutation, which is exactly the relation MatchAgainst
// decides. The exhaustive and differential tests in index_test.go pin the
// two paths against each other.
//
// Most candidates match nothing, so Lookup first checks a cheaper
// permutation invariant (invariantKey: arity, weight, and the multiset of
// cofactor weights) against the keys of everything indexed, and only pays
// for Canon() when some indexed table shares it. Equal canons imply equal
// invariants, so the check never rejects a hit.

import "math/bits"

// Hit is one library entry matched by an Index lookup.
type Hit struct {
	Entry Entry
	// Perm satisfies Entry.Table.Permute(Perm) == t for the looked-up
	// table t: the same contract as Table.MatchAgainst, so Perm[j] names the
	// candidate variable playing formal argument j.
	Perm []int
	// Unique reports that Perm is the only permutation satisfying the
	// contract (the entry has a trivial automorphism group). When false,
	// other valid permutations exist and MatchAgainst may return a
	// different — equally valid — one.
	Unique bool
}

type indexKey struct {
	bits uint64
	n    int8
}

type indexedEntry struct {
	entry  Entry
	perm   []int // entry.Table.Permute(perm) == canon of the table
	unique bool
}

// Index is a canonical-form hash index over a bitslice library. It is
// immutable after construction and safe for concurrent lookups.
type Index struct {
	m     map[indexKey][]indexedEntry
	arity [MaxVars + 1]bool
	// inv holds invariantKey of every indexed table.
	inv map[uint64]bool
}

// NewIndex builds the permutation-closure index of lib: a lookup hits
// exactly the entries MatchAgainst would accept. The default library lists
// both output polarities explicitly (and2/nand2, or2/nor2, xor2/xnor2,
// mux2/mux2-inv, ...), so permutation closure is all it needs. Hits
// surface in library order.
func NewIndex(lib []Entry) *Index {
	ix := &Index{
		m:   make(map[indexKey][]indexedEntry, len(lib)),
		inv: make(map[uint64]bool, len(lib)),
	}
	for _, e := range lib {
		canon, perm := e.Table.Canon()
		ix.arity[e.Table.N] = true
		ix.inv[invariantKey(e.Table)] = true
		k := indexKey{canon.Bits, int8(e.Table.N)}
		ix.m[k] = append(ix.m[k], indexedEntry{
			entry:  e,
			perm:   perm,
			unique: automorphismFree(e.Table),
		})
	}
	return ix
}

// automorphismFree reports whether the identity is t's only input-
// permutation automorphism. Build-time only: it enumerates all n!
// permutations, which the fast Permute makes negligible for n <= 6.
func automorphismFree(t Table) bool {
	n := t.N
	perm := make([]int, n)
	used := make([]bool, n)
	auts := 0
	var rec func(j int) bool
	rec = func(j int) bool {
		if j == n {
			if t.Permute(perm).Bits == t.Bits&Mask(n) {
				auts++
			}
			return auts > 1
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			used[v] = true
			perm[j] = v
			stop := rec(j + 1)
			used[v] = false
			if stop {
				return true
			}
		}
		return false
	}
	rec(0)
	return auts <= 1
}

// invariantKey packs a permutation invariant of t into one word: the
// arity, the weight, and the sorted per-variable weights of the x_i = 1
// half (bits.OnesCount64(t & x_i)). Permuting inputs permutes those
// per-variable weights, so permutation-equivalent tables share a key; the
// x_i = 0 half weight is the total less this one, so the key carries the
// same information as the sorted varSignature multiset. t.N must be at
// most MaxVars. Each field gets 7 bits (weights are at most 64) below the
// arity, so at most 52 bits are used and distinct invariants never share
// a key.
func invariantKey(t Table) uint64 {
	b := t.Bits & Mask(t.N)
	var w [MaxVars]uint64
	for i := 0; i < t.N; i++ {
		w[i] = uint64(bits.OnesCount64(b & varPattern[i]))
		for j := i; j > 0 && w[j] < w[j-1]; j-- { // insertion sort: n <= 6
			w[j], w[j-1] = w[j-1], w[j]
		}
	}
	k := uint64(t.N)<<7 | uint64(bits.OnesCount64(b))
	for i := 0; i < t.N; i++ {
		k = k<<7 | w[i]
	}
	return k
}

// Lookup classifies t against the indexed library. A table whose
// invariantKey no indexed table has cannot match and returns nil without a
// Canon(); otherwise it costs one Canon() plus one hash probe. The
// returned hits are in library order; each satisfies
// Hit.Entry.Table.Permute(Hit.Perm) == t.
// A nil result means no entry is permutation-equivalent to t — exactly the
// functions MatchAgainst rejects against every entry.
func (ix *Index) Lookup(t Table) []Hit {
	if !ix.hasArity(t.N) || !ix.inv[invariantKey(t)] {
		return nil
	}
	canon, pt := t.Canon()
	return ix.lookupCanon(canon, pt, t.N)
}

// LookupCanon is Lookup for callers that also want t's canonical form —
// typically to key an unmatched function's equivalence class. It returns
// the hits together with canon and a permutation pt with
// t.Permute(pt) == canon, paying a single Canon() for both uses.
func (ix *Index) LookupCanon(t Table) (hits []Hit, canon Table, pt []int) {
	canon, pt = t.Canon()
	if !ix.hasArity(t.N) {
		return nil, canon, pt
	}
	return ix.lookupCanon(canon, pt, t.N), canon, pt
}

func (ix *Index) lookupCanon(canon Table, pt []int, n int) []Hit {
	es := ix.m[indexKey{canon.Bits, int8(n)}]
	if len(es) == 0 {
		return nil
	}
	// t.Permute(pt) == canon and e.Table.Permute(e.perm) == canon, so
	// e.Table.Permute(inv(pt) ∘ e.perm) == t: formal argument j is played
	// by candidate variable inv(pt)[e.perm[j]].
	var inv [MaxVars]int
	for j, v := range pt {
		inv[v] = j
	}
	hits := make([]Hit, len(es))
	for i, e := range es {
		perm := make([]int, n)
		for j, v := range e.perm {
			perm[j] = inv[v]
		}
		hits[i] = Hit{Entry: e.entry, Perm: perm, Unique: e.unique}
	}
	return hits
}

// hasArity reports whether any entry has exactly n variables, so a lookup
// skips the Canon() of arities the library cannot match.
func (ix *Index) hasArity(n int) bool { return n <= MaxVars && ix.arity[n] }
