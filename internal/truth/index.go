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

import (
	"math/bits"
	"sort"
)

// Hit is one library entry matched by an Index lookup.
type Hit struct {
	Entry Entry
	// Perm satisfies Entry.Table.Permute(Perm) == t for the looked-up
	// table t (Entry.Table.Permute(Perm) == t.Not() when OutNegated):
	// the same contract as Table.MatchAgainst, so Perm[j] names the
	// candidate variable playing formal argument j.
	Perm []int
	// Unique reports that Perm is the only permutation satisfying the
	// contract (the entry has a trivial automorphism group). When false,
	// other valid permutations exist and MatchAgainst may return a
	// different — equally valid — one.
	Unique bool
	// OutNegated reports that the entry matched with its output
	// complemented. Only produced by indexes built with polarity closure
	// (NewIndexWithPolarity).
	OutNegated bool
}

type indexKey struct {
	bits uint64
	n    int8
}

type indexedEntry struct {
	entry  Entry
	perm   []int // entry.Table.Permute(perm) == canon of the (possibly negated) table
	libPos int
	outNeg bool
	unique bool
}

// Index is a canonical-form hash index over a bitslice library. It is
// immutable after construction and safe for concurrent lookups.
type Index struct {
	m     map[indexKey][]indexedEntry
	arity [MaxVars + 1]bool
	// inv holds invariantKey of every indexed table: each entry, and its
	// complement when indexed with polarity closure.
	inv map[uint64]bool
}

// NewIndex builds the permutation-closure index of lib: a lookup hits
// exactly the entries MatchAgainst would accept. The default library lists
// both output polarities explicitly (and2/nand2, or2/nor2, xor2/xnor2,
// mux2/mux2-inv, ...), so permutation closure is all it needs; libraries
// that omit complements should use NewIndexWithPolarity.
func NewIndex(lib []Entry) *Index {
	return newIndex(lib, false)
}

// NewIndexWithPolarity builds the index with output-polarity (NP) closure:
// each entry is additionally indexed under the canonical form of its
// complement, and such hits carry OutNegated. Entries whose complement is
// permutation-equivalent to the entry itself (e.g. fa-sum) produce no
// separate negated key.
func NewIndexWithPolarity(lib []Entry) *Index {
	return newIndex(lib, true)
}

func newIndex(lib []Entry, polarity bool) *Index {
	ix := &Index{
		m:   make(map[indexKey][]indexedEntry, 2*len(lib)),
		inv: make(map[uint64]bool, 2*len(lib)),
	}
	for pos, e := range lib {
		canon, perm := e.Table.Canon()
		ix.arity[e.Table.N] = true
		ix.inv[invariantKey(e.Table)] = true
		ix.add(indexKey{canon.Bits, int8(e.Table.N)}, indexedEntry{
			entry:  e,
			perm:   perm,
			libPos: pos,
			unique: automorphismFree(e.Table),
		})
		if polarity {
			not := e.Table.Not()
			ncanon, nperm := not.Canon()
			if ncanon.Bits == canon.Bits {
				continue // self-complementary up to permutation
			}
			ix.inv[invariantKey(not)] = true
			ix.add(indexKey{ncanon.Bits, int8(e.Table.N)}, indexedEntry{
				entry:  e,
				perm:   nperm,
				libPos: pos,
				outNeg: true,
				unique: automorphismFree(not),
			})
		}
	}
	// Hits surface in library order; for a (pathological) library where
	// one canon key holds both a direct and a negated entry, direct wins
	// ties.
	for k := range ix.m {
		es := ix.m[k]
		sort.Slice(es, func(i, j int) bool {
			if es[i].libPos != es[j].libPos {
				return es[i].libPos < es[j].libPos
			}
			return !es[i].outNeg && es[j].outNeg
		})
	}
	return ix
}

func (ix *Index) add(k indexKey, e indexedEntry) {
	ix.m[k] = append(ix.m[k], e)
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

// HasArity reports whether any entry has exactly n variables. Callers use
// it to skip the Canon() of candidate arities the library cannot match.
func (ix *Index) HasArity(n int) bool {
	return n >= 0 && n <= MaxVars && ix.arity[n]
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
// Hit.Entry.Table.Permute(Hit.Perm) == t (== t.Not() when OutNegated).
// A nil result means no entry is permutation-equivalent to t — exactly the
// functions MatchAgainst rejects against every entry.
func (ix *Index) Lookup(t Table) []Hit {
	if !ix.HasArity(t.N) || !ix.inv[invariantKey(t)] {
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
	if !ix.HasArity(t.N) {
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
		hits[i] = Hit{Entry: e.entry, Perm: perm, Unique: e.unique, OutNegated: e.outNeg}
	}
	return hits
}
