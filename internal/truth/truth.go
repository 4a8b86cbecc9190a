// Package truth implements truth tables over at most six variables, the
// permutation-independent Boolean matching used for bitslice identification
// (Section II-A of the paper), and the bitslice function library.
//
// A table over n variables is stored in the low 2^n bits of a uint64: bit r
// holds f(x) for the input row r, where bit i of r is the value of variable
// i. Six variables is exactly the paper's cut-enumeration limit, so a single
// machine word always suffices, and every table operation — including input
// permutation, which is implemented as a short sequence of masked bit-pair
// swaps rather than a row-by-row loop — is a handful of word operations.
//
// Matching a cut function against the library takes one of two paths. The
// slow path, MatchAgainst, searches for an input permutation per library
// entry and remains the reference oracle for tests. The fast path is the
// canonical-form Index: every library entry's Canon() form is precomputed
// into a hash table once (NewIndex, with optional output-polarity closure
// for libraries that do not already contain both polarities). Classifying
// a cut first checks a cheap permutation invariant (arity, weight and the
// multiset of cofactor weights) against those of the indexed tables; only
// a cut whose invariant some indexed table shares pays for one Canon()
// plus one map probe, and the leaf→argument correspondence is recovered
// from the stored permutations. Both paths provably accept exactly the
// same functions: Canon() is invariant under input permutation, so
// canon(f) == canon(g) iff MatchAgainst would find a permutation between f
// and g, and permutation-equivalent functions share the invariant.
package truth

import (
	"fmt"
	"math/bits"
)

// MaxVars is the largest supported variable count, matching the paper's
// 6-feasible cut limit.
const MaxVars = 6

// Table is a Boolean function of N variables.
type Table struct {
	Bits uint64
	N    int
}

// Mask returns the uint64 mask covering the 2^N valid rows.
func Mask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << uint(n))) - 1
}

// varPattern[i] is the truth table of the projection x_i over 6 variables.
var varPattern = [MaxVars]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// Var returns the table of variable i over n variables.
func Var(i, n int) Table {
	if i < 0 || i >= n || n > MaxVars {
		panic(fmt.Sprintf("truth: Var(%d, %d) out of range", i, n))
	}
	return Table{Bits: varPattern[i] & Mask(n), N: n}
}

// Const returns the constant table v over n variables.
func Const(v bool, n int) Table {
	if v {
		return Table{Bits: Mask(n), N: n}
	}
	return Table{N: n}
}

// Not returns the complement of t.
func (t Table) Not() Table { return Table{Bits: ^t.Bits & Mask(t.N), N: t.N} }

// And returns t AND u. Both tables must have the same variable count.
func (t Table) And(u Table) Table { return t.bin(u, t.Bits&u.Bits) }

// Or returns t OR u.
func (t Table) Or(u Table) Table { return t.bin(u, t.Bits|u.Bits) }

// Xor returns t XOR u.
func (t Table) Xor(u Table) Table { return t.bin(u, t.Bits^u.Bits) }

func (t Table) bin(u Table, bits uint64) Table {
	if t.N != u.N {
		panic("truth: mixed variable counts")
	}
	return Table{Bits: bits & Mask(t.N), N: t.N}
}

// Compose returns the function of a packed k-input cell mask applied to the
// argument functions: result(x) = mask[row] where bit j of row is args[j](x).
// All argument tables must share the same variable count, which the result
// inherits; with no arguments the result is the constant mask bit 0. It is
// how cut enumeration folds LUT nodes: each fanin's cut function becomes an
// argument and the LUT's mask selects among them by Shannon expansion.
func Compose(mask uint64, args []Table) Table {
	k := len(args)
	if k > MaxVars {
		panic(fmt.Sprintf("truth: Compose with %d arguments", k))
	}
	n := 0
	if k > 0 {
		n = args[0].N
		for _, a := range args {
			if a.N != n {
				panic("truth: mixed variable counts")
			}
		}
	}
	var rec func(m uint64, j int) uint64
	rec = func(m uint64, j int) uint64 {
		if j == 0 {
			if m&1 == 1 {
				return ^uint64(0)
			}
			return 0
		}
		half := uint(1) << uint(j-1)
		lo := rec(m, j-1)
		hi := rec(m>>half, j-1)
		a := args[j-1].Bits
		return (^a & lo) | (a & hi)
	}
	return Table{Bits: rec(mask, k) & Mask(n), N: n}
}

// Eval returns f(row): the value of the function on input row r.
func (t Table) Eval(row uint) bool { return t.Bits>>(row)&1 == 1 }

// Ones returns the number of satisfying rows.
func (t Table) Ones() int { return bits.OnesCount64(t.Bits & Mask(t.N)) }

// IsConst reports whether t is a constant function and, if so, its value.
func (t Table) IsConst() (bool, bool) {
	m := Mask(t.N)
	switch t.Bits & m {
	case 0:
		return true, false
	case m:
		return true, true
	}
	return false, false
}

// Cofactor returns the cofactor of t with variable i fixed to v. The result
// still has N variables but no longer depends on variable i.
func (t Table) Cofactor(i int, v bool) Table {
	p := varPattern[i]
	shift := uint(1) << uint(i)
	var half uint64
	if v {
		half = t.Bits & p
		half |= half >> shift
	} else {
		half = t.Bits &^ p
		half |= half << shift
	}
	return Table{Bits: half & Mask(t.N), N: t.N}
}

// DependsOn reports whether t depends essentially on variable i.
func (t Table) DependsOn(i int) bool {
	return t.Cofactor(i, false).Bits != t.Cofactor(i, true).Bits
}

// supportMask returns the essential variables of t as a mask: bit i is set
// iff t depends on variable i.
func (t Table) supportMask() uint8 {
	// Variable i is essential iff some row with x_i = 0 differs from its
	// partner row with x_i = 1, DependsOn in one word operation.
	b := t.Bits & Mask(t.N)
	var m uint8
	for i := 0; i < t.N; i++ {
		if (b^b>>(1<<uint(i)))&^varPattern[i] != 0 {
			m |= 1 << uint(i)
		}
	}
	return m
}

// Support returns the essential variable indices of t, ascending, or nil
// when t is constant.
func (t Table) Support() []int {
	m := t.supportMask()
	if m == 0 {
		return nil
	}
	s := make([]int, 0, bits.OnesCount8(m))
	for ; m != 0; m &= m - 1 {
		s = append(s, bits.TrailingZeros8(m))
	}
	return s
}

// Shrink removes vacuous variables. It returns the shrunk table together
// with the support mask sup (see supportMask): the shrunk table's variable
// j is the original variable at the j-th lowest set bit of sup.
//
// The shrunk table is one permutation away: moving the support to the low
// variables (and the vacuous ones above them) leaves a function of the low
// popcount(sup) variables, whose table is the low 2^popcount(sup) rows.
func (t Table) Shrink() (Table, uint8) {
	sup := t.supportMask()
	n := bits.OnesCount8(sup)
	if n == t.N {
		return t, sup // the identity when no variable is vacuous
	}
	var p [MaxVars]int // support variables first, ascending, vacuous above
	j, next := 0, n
	for v := 0; v < t.N; v++ {
		if sup>>uint(v)&1 == 1 {
			p[v] = j
			j++
		} else {
			p[v] = next
			next++
		}
	}
	return Table{Bits: permuteBits(t.Bits&Mask(t.N), p[:t.N]) & Mask(n), N: n}, sup
}

// Permute returns g with g(x_0..x_{n-1}) = t(x_{p[0]}, ..., x_{p[n-1]}):
// input j of t is driven by variable p[j] of the result.
//
// When p is a true permutation of 0..N-1 (the only case the matching
// algorithms produce) the result is computed with at most N-1 masked
// bit-pair swaps — O(N) word operations instead of the O(2^N · N) row loop,
// which is what makes Canon() and the canonical-form Index cheap. Degenerate
// maps fall back to the row loop for legacy behavior.
func (t Table) Permute(p []int) Table {
	if len(p) != t.N {
		panic("truth: permutation length mismatch")
	}
	if !isPermutation(p, t.N) {
		return t.permuteSlow(p)
	}
	return Table{Bits: permuteBits(t.Bits&Mask(t.N), p), N: t.N}
}

// isPermutation reports whether p is a bijection on 0..n-1.
func isPermutation(p []int, n int) bool {
	var seen uint8
	for _, v := range p {
		if v < 0 || v >= n || seen>>uint(v)&1 == 1 {
			return false
		}
		seen |= 1 << uint(v)
	}
	return true
}

// swapRowBits exchanges row bits a and b of a truth table: the returned word
// w satisfies w[r] = bits[r with bits a and b swapped]. It is the word-level
// primitive behind the fast Permute: rows with bit a=1, b=0 trade places
// with their partners at +((1<<b)-(1<<a)) in one masked delta swap.
func swapRowBits(bits uint64, a, b int) uint64 {
	if a == b {
		return bits
	}
	if a > b {
		a, b = b, a
	}
	m := varPattern[a] &^ varPattern[b]
	s := uint(1)<<uint(b) - uint(1)<<uint(a)
	d := (bits ^ bits>>s) & m
	return bits ^ d ^ d<<s
}

// permuteBits applies the row permutation of Permute(p) to bits. It tracks
// the permutation q realized so far (starting from the identity); exchanging
// q's entries at positions j and k corresponds exactly to swapRowBits on the
// row bits q[j], q[k], so p is reached with at most len(p)-1 transpositions.
func permuteBits(bits uint64, p []int) uint64 {
	var q, pos [MaxVars]int
	n := len(p)
	for i := 0; i < n; i++ {
		q[i], pos[i] = i, i
	}
	for j := 0; j < n; j++ {
		v := p[j]
		if q[j] == v {
			continue
		}
		k := pos[v]
		bits = swapRowBits(bits, q[j], q[k])
		q[j], q[k] = q[k], q[j]
		pos[q[j]], pos[q[k]] = j, k
	}
	return bits
}

// permuteSlow is the reference row-by-row implementation, kept for
// degenerate (non-bijective) maps.
func (t Table) permuteSlow(p []int) Table {
	out := Table{N: t.N}
	for r := uint(0); r < 1<<uint(t.N); r++ {
		var tr uint
		for j := 0; j < t.N; j++ {
			if r>>uint(p[j])&1 == 1 {
				tr |= 1 << uint(j)
			}
		}
		if t.Eval(tr) {
			out.Bits |= 1 << r
		}
	}
	return out
}

// Expand lifts t onto a wider variable space: the result has n variables
// and equals t(x_{m[0]}, ..., x_{m[len(m)-1]}). len(m) must equal t.N and
// every m[j] must be < n. It is used to bring cut functions over different
// leaf sets into a common space.
//
// For injective maps (every cut merge produces one) the expansion is
// word-parallel: the table is replicated onto the vacuous top variables with
// shifted ORs and then permuted into place, O(n) word operations in total.
// This is the inner loop of cut enumeration.
func (t Table) Expand(m []int, n int) Table {
	if len(m) != t.N {
		panic("truth: Expand map length mismatch")
	}
	if n > MaxVars {
		panic("truth: Expand beyond MaxVars")
	}
	var seen uint8
	for _, v := range m {
		if v < 0 || v >= n || seen>>uint(v)&1 == 1 {
			return t.expandSlow(m, n) // non-injective or out-of-range map
		}
		seen |= 1 << uint(v)
	}
	// Replicate onto vacuous variables t.N..n-1, then send variable j of t
	// to position m[j]; the vacuous variables fill the remaining slots in
	// ascending order (their placement is irrelevant — the function does
	// not depend on them).
	bits := t.Bits & Mask(t.N)
	for i := t.N; i < n; i++ {
		bits |= bits << (1 << uint(i))
	}
	var p [MaxVars]int
	copy(p[:], m)
	next := t.N
	for v := 0; v < n; v++ {
		if seen>>uint(v)&1 == 0 {
			p[next] = v
			next++
		}
	}
	return Table{Bits: permuteBits(bits, p[:n]), N: n}
}

// expandSlow is the reference row-by-row implementation, kept for
// degenerate maps.
func (t Table) expandSlow(m []int, n int) Table {
	out := Table{N: n}
	for r := uint(0); r < 1<<uint(n); r++ {
		var tr uint
		for j := 0; j < t.N; j++ {
			if r>>uint(m[j])&1 == 1 {
				tr |= 1 << uint(j)
			}
		}
		if t.Eval(tr) {
			out.Bits |= 1 << r
		}
	}
	return out
}

// String renders the table as a hex constant annotated with arity.
func (t Table) String() string {
	return fmt.Sprintf("0x%0*x/%d", (1<<uint(t.N))/4+1, t.Bits&Mask(t.N), t.N)
}

// varSignature is a permutation-invariant per-variable fingerprint used to
// prune the canonicalization search: variables can only map to variables
// with the same signature.
func (t Table) varSignature(i int) uint64 {
	c1 := t.Cofactor(i, true)
	c0 := t.Cofactor(i, false)
	return uint64(c1.Ones())<<32 | uint64(c0.Ones())
}

// Canon returns the canonical representative of t under input permutation
// together with a permutation p such that t.Permute(p) == canon. Functions
// equal up to input permutation share a canonical representative.
//
// The search first sorts variables by a permutation-covariant signature
// (cofactor weights) and then enumerates only the permutations that respect
// the signature blocks. Signatures follow relabeling, so two
// permutation-equivalent functions induce the same block structure and the
// same candidate table set; taking the minimum over that set is therefore a
// true canonical form while enumerating k1!·k2!·… permutations instead of
// n!.
func (t Table) Canon() (Table, []int) {
	n := t.N
	if n == 0 {
		return t, nil
	}
	type varSig struct {
		v   int
		sig uint64
	}
	order := make([]varSig, n)
	for i := 0; i < n; i++ {
		order[i] = varSig{i, t.varSignature(i)}
	}
	for i := 1; i < n; i++ { // insertion sort: n <= 6
		for j := i; j > 0 && order[j].sig < order[j-1].sig; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	// Result slot j must receive a variable whose signature equals
	// order[j].sig (the j-th smallest). Since signatures are determined by
	// the function itself, every permutation-equivalent table induces the
	// same slot requirements, and the candidate sets below coincide.
	// best starts unset rather than at a ^0 sentinel: the all-ones table of
	// MaxVars variables has Bits == ^0, and a sentinel comparison would
	// never accept it, returning a nil permutation.
	best := Table{N: n}
	var bestPerm []int
	perm := make([]int, n) // perm[v] = result slot assigned to variable v
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			cand := t.Permute(perm)
			if bestPerm == nil || cand.Bits < best.Bits {
				best = cand
				bestPerm = append(bestPerm[:0], perm...)
			}
			return
		}
		// Variables order[k..hi) share a signature and may be assigned to
		// slots k..hi in any arrangement; recurse over the block.
		hi := k
		for hi < n && order[hi].sig == order[k].sig {
			hi++
		}
		slots := make([]int, hi-k)
		for i := range slots {
			slots[i] = k + i
		}
		var assign func(i int)
		assign = func(i int) {
			if i == hi-k {
				rec(hi)
				return
			}
			for s := i; s < len(slots); s++ {
				slots[i], slots[s] = slots[s], slots[i]
				perm[order[k+i].v] = slots[i]
				assign(i + 1)
				slots[i], slots[s] = slots[s], slots[i]
			}
		}
		assign(0)
	}
	rec(0)
	return best, bestPerm
}

// MatchAgainst searches for a permutation p with ref.Permute(p) == t. It
// returns the permutation and true on success. p[j] = k means input j of
// ref is driven by variable k of t (i.e. cut leaf k plays argument j of the
// reference function).
func (t Table) MatchAgainst(ref Table) ([]int, bool) {
	if t.N != ref.N {
		return nil, false
	}
	if t.Ones() != ref.Ones() {
		return nil, false
	}
	n := t.N
	// Signature multiset must agree: Permute relabels ref's inputs, and
	// cofactor weights follow the relabeling.
	tsig := make([]uint64, n)
	rsig := make([]uint64, n)
	for i := 0; i < n; i++ {
		tsig[i] = t.varSignature(i)
		rsig[i] = ref.varSignature(i)
	}

	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(j int) bool
	rec = func(j int) bool {
		if j == n {
			return ref.Permute(perm).Bits == t.Bits
		}
		for v := 0; v < n; v++ {
			if used[v] || rsig[j] != tsig[v] {
				continue
			}
			used[v] = true
			perm[j] = v
			if rec(j + 1) {
				return true
			}
			used[v] = false
		}
		return false
	}
	if rec(0) {
		return perm, true
	}
	return nil, false
}
