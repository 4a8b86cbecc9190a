// Package bdd implements reduced ordered binary decision diagrams, the
// functional-analysis workhorse of the paper's RAM, decoder, counter and
// shift-register checks (standing in for the CUDD package the authors use).
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
// register's next-state functions over the controls its latches share.
package bdd

import (
	"errors"
	"fmt"
	"math"
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
	exC     map[exKey]Ref
	conC    map[iteKey]Ref
	numVars int
	// Limit bounds the node table; 0 means DefaultLimit.
	Limit int
}

type exKey struct {
	f    Ref
	cube Ref
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
		exC:     make(map[exKey]Ref),
		conC:    make(map[iteKey]Ref),
		numVars: n,
	}
	m.nodes[False] = node{level: math.MaxInt32}
	m.nodes[True] = node{level: math.MaxInt32}
	return m
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

// Const returns the constant function v.
func (m *Manager) Const(v bool) Ref {
	if v {
		return True
	}
	return False
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

// Implies returns f -> g.
func (m *Manager) Implies(f, g Ref) Ref { return m.ITE(f, g, True) }

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

// RestrictCube fixes a set of variables given as (index, value) pairs.
func (m *Manager) RestrictCube(f Ref, assign map[int]bool) Ref {
	for i, v := range assign {
		f = m.Restrict(f, i, v)
	}
	return f
}

// Constrain computes the Coudert-Madre generalized cofactor f|c: a function
// that agrees with f wherever c holds. It implements the paper's
// cofactor(f, g) for non-cube g (used by the counter check's h_i).
func (m *Manager) Constrain(f, c Ref) Ref {
	switch {
	case c == True, f == False, f == True:
		return f
	case c == False:
		return False // undefined domain; conventional result
	case f == c:
		return True
	}
	k := iteKey{f, c, -1}
	if r, ok := m.conC[k]; ok {
		return r
	}
	top := m.level(f)
	if l := m.level(c); l < top {
		top = l
	}
	c0, c1 := m.cofs(c, top)
	f0, f1 := m.cofs(f, top)
	var r Ref
	switch {
	case c1 == False:
		r = m.Constrain(f0, c0)
	case c0 == False:
		r = m.Constrain(f1, c1)
	default:
		r = m.mk(top, m.Constrain(f0, c0), m.Constrain(f1, c1))
	}
	m.conC[k] = r
	return r
}

// Exists existentially quantifies the variables of cube (a conjunction of
// positive variables) out of f.
func (m *Manager) Exists(f, cube Ref) Ref {
	if cube == True || f == False || f == True {
		return f
	}
	k := exKey{f, cube}
	if r, ok := m.exC[k]; ok {
		return r
	}
	fl, cl := m.level(f), m.level(cube)
	var r Ref
	switch {
	case cl < fl:
		r = m.Exists(f, m.nodes[cube].hi)
	case cl > fl:
		n := m.nodes[f]
		r = m.mk(n.level, m.Exists(n.lo, cube), m.Exists(n.hi, cube))
	default:
		n := m.nodes[f]
		rest := m.nodes[cube].hi
		lo := m.Exists(n.lo, rest)
		hi := m.Exists(n.hi, rest)
		r = m.Or(lo, hi)
	}
	m.exC[k] = r
	return r
}

// Cube builds the conjunction of the given variables (all positive).
func (m *Manager) Cube(vars []int) Ref {
	r := True
	for _, v := range vars {
		r = m.And(r, m.Var(v))
	}
	return r
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

// AnySat returns a satisfying assignment of f (over the variables on the
// satisfying path only), or nil when f is unsatisfiable.
func (m *Manager) AnySat(f Ref) map[int]bool {
	if f == False {
		return nil
	}
	assign := make(map[int]bool)
	for f != True {
		n := m.nodes[f]
		if n.hi != False {
			assign[int(n.level)] = true
			f = n.hi
		} else {
			assign[int(n.level)] = false
			f = n.lo
		}
	}
	return assign
}

// SatCount returns the number of satisfying assignments of f over all
// numVars variables.
func (m *Manager) SatCount(f Ref) float64 {
	memo := make(map[Ref]float64)
	var rec func(r Ref, level int32) float64
	rec = func(r Ref, level int32) float64 {
		if r == False {
			return 0
		}
		if r == True {
			return math.Pow(2, float64(int32(m.numVars)-level))
		}
		n := m.nodes[r]
		key := r
		base, ok := memo[key]
		if !ok {
			base = rec(n.lo, n.level+1) + rec(n.hi, n.level+1)
			memo[key] = base
		}
		return base * math.Pow(2, float64(n.level-level))
	}
	return rec(f, 0)
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

// NodeCount returns the number of distinct internal nodes reachable from f.
func (m *Manager) NodeCount(f Ref) int {
	seen := make(map[Ref]bool)
	stack := []Ref{f}
	count := 0
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if r == True || r == False || seen[r] {
			continue
		}
		seen[r] = true
		count++
		n := m.nodes[r]
		stack = append(stack, n.lo, n.hi)
	}
	return count
}
