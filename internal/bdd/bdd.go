// Package bdd implements reduced ordered binary decision diagrams, the
// functional-analysis workhorse of the paper's RAM, decoder and population
// counter checks and of the decompiler's template proofs and round-trip
// check (standing in for the CUDD package the authors use). It keeps the
// operations those callers share: ITE and its Boolean forms, Restrict,
// Compose, Support, and the one-hot, literal and population-count checks.
//
// The manager owns all nodes; functions are identified by Ref values, and
// two functions are equivalent iff their Refs are equal (canonicity of
// ROBDDs). There are no complement edges: the structure is kept simple in
// exchange for a slightly larger node count, which is irrelevant at the
// cone sizes these analyses inspect.
//
// Builder is the one netlist-to-BDD translation: it holds the per-kind gate
// and LUT semantics for every caller. Its Leaf predicate cuts cones at
// caller-chosen nodes, which is how the RAM read check builds a root over
// its latches, inputs and unmarked nodes, and how the decompiler proves a
// template over the template's ports, or a register's next-state functions
// over the controls its latches share.
package bdd

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Ref identifies a BDD node (and hence a Boolean function) within a
// Manager.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level  int32 // variable level; terminals use math.MaxInt32
	lo, hi Ref
}

type uniqueKey struct {
	level  int32
	lo, hi Ref
}

type iteKey struct{ f, g, h Ref }

// ErrOverflow is panicked (and recovered into an error by Run) when a
// manager exceeds its node limit.
var ErrOverflow = errors.New("bdd: node limit exceeded")

// Manager owns BDD nodes and operation caches.
type Manager struct {
	nodes   []node
	unique  map[uniqueKey]Ref
	iteC    map[iteKey]Ref
	numVars int
	// Limit bounds the node table; 0 means DefaultLimit.
	Limit int
}

// DefaultLimit is the default node-table bound.
const DefaultLimit = 4 << 20

// New returns a manager with n variables at levels 0..n-1 (level order =
// variable order).
func New(n int) *Manager {
	m := &Manager{
		nodes:   make([]node, 2, 1024),
		unique:  make(map[uniqueKey]Ref),
		iteC:    make(map[iteKey]Ref),
		numVars: n,
	}
	m.nodes[False] = node{level: math.MaxInt32}
	m.nodes[True] = node{level: math.MaxInt32}
	return m
}

// Reset empties the manager to the state New(0) returns, keeping its node
// table's and caches' capacity and its Limit, so a caller that runs many
// small independent checks reuses one manager. Every Ref and Builder of
// the manager is invalid after Reset.
func (m *Manager) Reset() {
	m.nodes = m.nodes[:2]
	clear(m.unique)
	clear(m.iteC)
	m.numVars = 0
}

// NumVars returns the number of variables in the manager.
func (m *Manager) NumVars() int { return m.numVars }

// AddVar appends a fresh variable at the bottom of the order and returns
// its index.
func (m *Manager) AddVar() int {
	m.numVars++
	return m.numVars - 1
}

// Size returns the number of live nodes (including terminals).
func (m *Manager) Size() int { return len(m.nodes) }

// Run executes f, converting an ErrOverflow panic into an error. Analyses
// wrap potentially explosive BDD constructions in Run.
func (m *Manager) Run(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if r == ErrOverflow {
				err = ErrOverflow
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	k := uniqueKey{level, lo, hi}
	if r, ok := m.unique[k]; ok {
		return r
	}
	limit := m.Limit
	if limit == 0 {
		limit = DefaultLimit
	}
	if len(m.nodes) >= limit {
		panic(ErrOverflow)
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	m.unique[k] = r
	return r
}

// Var returns the function of variable i.
func (m *Manager) Var(i int) Ref {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: Var(%d) out of range [0,%d)", i, m.numVars))
	}
	return m.mk(int32(i), False, True)
}

// NVar returns the negation of variable i.
func (m *Manager) NVar(i int) Ref {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: NVar(%d) out of range", i))
	}
	return m.mk(int32(i), True, False)
}

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// ITE computes if-then-else(f, g, h).
func (m *Manager) ITE(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	k := iteKey{f, g, h}
	if r, ok := m.iteC[k]; ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofs(f, top)
	g0, g1 := m.cofs(g, top)
	h0, h1 := m.cofs(h, top)
	lo := m.ITE(f0, g0, h0)
	hi := m.ITE(f1, g1, h1)
	r := m.mk(top, lo, hi)
	m.iteC[k] = r
	return r
}

// cofs returns the cofactors of r at the given level.
func (m *Manager) cofs(r Ref, level int32) (lo, hi Ref) {
	n := m.nodes[r]
	if n.level != level {
		return r, r
	}
	return n.lo, n.hi
}

// Not returns the complement of f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// And returns f AND g.
func (m *Manager) And(f, g Ref) Ref { return m.ITE(f, g, False) }

// Or returns f OR g.
func (m *Manager) Or(f, g Ref) Ref { return m.ITE(f, True, g) }

// Xor returns f XOR g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Xnor returns f XNOR g.
func (m *Manager) Xnor(f, g Ref) Ref { return m.ITE(f, g, m.Not(g)) }

// Restrict fixes variable i to value v in f (the Shannon cofactor).
func (m *Manager) Restrict(f Ref, i int, v bool) Ref {
	lvl := int32(i)
	var rec func(r Ref) Ref
	memo := make(map[Ref]Ref)
	rec = func(r Ref) Ref {
		n := m.nodes[r]
		if n.level > lvl {
			return r // terminals and variables below i are unaffected
		}
		if got, ok := memo[r]; ok {
			return got
		}
		var out Ref
		if n.level == lvl {
			if v {
				out = n.hi
			} else {
				out = n.lo
			}
		} else {
			out = m.mk(n.level, rec(n.lo), rec(n.hi))
		}
		memo[r] = out
		return out
	}
	return rec(f)
}

// Compose substitutes g for variable i in f: ITE(g, f|i=1, f|i=0).
func (m *Manager) Compose(f Ref, i int, g Ref) Ref {
	return m.ITE(g, m.Restrict(f, i, true), m.Restrict(f, i, false))
}

// Eval evaluates f under a complete assignment (missing variables default
// to false).
func (m *Manager) Eval(f Ref, assign map[int]bool) bool {
	for f != True && f != False {
		n := m.nodes[f]
		if assign[int(n.level)] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// Support returns the sorted variable indices f depends on.
func (m *Manager) Support(f Ref) []int {
	seen := make(map[Ref]bool)
	vars := make(map[int32]bool)
	var rec func(r Ref)
	rec = func(r Ref) {
		if r == True || r == False || seen[r] {
			return
		}
		seen[r] = true
		n := m.nodes[r]
		vars[n.level] = true
		rec(n.lo)
		rec(n.hi)
	}
	rec(f)
	out := make([]int, 0, len(vars))
	for v := range vars {
		out = append(out, int(v))
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Literal reports whether f is a single literal, returning its variable
// and whether it is positive. A node whose children are both terminals is
// one: the children differ, or the node would have been reduced away.
func (m *Manager) Literal(f Ref) (v int, pos, ok bool) {
	if f == True || f == False {
		return 0, false, false
	}
	n := m.nodes[f]
	if n.lo > True || n.hi > True {
		return 0, false, false
	}
	return int(n.level), n.hi == True, true
}

// Exclusive reports whether each of fs is satisfiable and no two are true
// at once: the one-hot condition of decoder outputs, RAM write enables and
// framebuffer row selects.
func (m *Manager) Exclusive(fs []Ref) bool {
	for i, f := range fs {
		if f == False {
			return false
		}
		for _, g := range fs[i+1:] {
			if m.And(f, g) != False {
				return false
			}
		}
	}
	return true
}

// PopCount returns the binary count of the true xs, least significant bit
// first, as a ripple of half adders: bits.Len(len(xs)) functions.
func (m *Manager) PopCount(xs []Ref) []Ref {
	count := make([]Ref, bits.Len(uint(len(xs))))
	for i := range count {
		count[i] = False
	}
	for _, x := range xs {
		carry := x
		for i := 0; i < len(count) && carry != False; i++ {
			count[i], carry = m.Xor(count[i], carry), m.And(count[i], carry)
		}
	}
	return count
}
