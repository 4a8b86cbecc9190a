// Package overlap implements Section IV of the paper: selecting a
// non-overlapping subset of inferred modules with a 0-1 integer linear
// program. Both the basic formulation (one binary per module) and the
// sliceable formulation (per-slice binaries with linking and MinSlices
// constraints, Section IV-B) are provided, each with two objectives:
// maximize coverage, or minimize the number of output modules subject to a
// coverage target. Either way a resolution is one ILP over every module.
package overlap

import (
	"encoding/binary"
	"fmt"
	"slices"

	"netlistre/internal/ilp"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
)

// Objective selects the optimization target.
type Objective int

// Objectives.
const (
	// MaxCoverage maximizes the number of covered elements (IV-A.3).
	MaxCoverage Objective = iota
	// MinModules minimizes the number of selected modules subject to
	// covering at least CoverageTarget elements (IV-A.4).
	MinModules
)

// Options configures resolution.
type Options struct {
	Objective Objective
	// CoverageTarget is the element floor for MinModules.
	CoverageTarget int
	// Sliceable enables the per-slice formulation of Section IV-B.
	Sliceable bool
	// MinSlices is the smallest number of slices a selected sliceable
	// module must keep (the paper uses 2).
	MinSlices int
	// NodeLimit caps the branch-and-bound search of the resolution's ILP
	// (0 = a default of 200,000 nodes). The basic-formulation warm start
	// of a sliceable MaxCoverage resolution gets a quarter of it on top.
	// When the limit is hit the best incumbent is used and Result.Optimal
	// is false.
	NodeLimit int64
	// Interrupt, when non-nil, is polled inside the ILP searches; when it
	// returns true each remaining search stops at its best incumbent and
	// Result.Optimal is false (the selection stays feasible and
	// non-overlapping).
	Interrupt func() bool
}

// defaultNodeLimit bounds a resolution's search time. With the Lagrangian
// element bound (see newBuilder) and the solver's separate search of
// independent sub-problems, every sliceable MaxCoverage resolution of the
// labeled articles proves optimal far under it, riscfpu's in 1,326 nodes,
// and simplified BigSoC's in under 10,000. A search that does stop at the
// limit keeps its best incumbent, and Result.Optimal reports the
// distinction.
const defaultNodeLimit = 200_000

// Result reports the selection.
type Result struct {
	// Selected holds the chosen modules. Sliceable modules may be
	// rebuilt with a subset of their slices.
	Selected []*module.Module
	// Coverage is the number of elements covered by Selected.
	Coverage int
	// Optimal is false when the solver hit its node limit.
	Optimal bool
	// Nodes counts the branch-and-bound nodes of the ILP and of its
	// warm-start solve, if any. A failed resolution sets it too.
	Nodes int64
}

// Resolve selects a non-overlapping subset of mods by solving one ILP over
// all of them, for either objective. Independent parts need no separate
// handling: the solver searches independent components of the free
// variables separately, at the root and below, and under MaxCoverage a
// module that overlaps no other touches no packing row, so it is selected
// at once. Selected lists the chosen modules in the order of mods. On
// error the Result holds only Nodes, which the error text also carries.
func Resolve(mods []*module.Module, opt Options) (Result, error) {
	if opt.MinSlices <= 0 {
		opt.MinSlices = 2
	}
	if opt.NodeLimit == 0 {
		opt.NodeLimit = defaultNodeLimit
	}
	ilpOpt := ilp.Options{NodeLimit: opt.NodeLimit, Interrupt: opt.Interrupt}
	var whole []bool // the modules the basic formulation's optimum selects
	var warmNodes int64
	if opt.Sliceable && opt.Objective == MaxCoverage {
		// Warm start the sliceable search with the basic formulation's
		// optimum: a whole-module selection is always feasible at slice
		// granularity, and the strong incumbent prunes most of the
		// slice-rearrangement space.
		whole, warmNodes = basicSelection(mods, opt)
	}
	b := newBuilder(mods, opt)
	if whole != nil {
		ilpOpt.Incumbent = make([]bool, b.problem.NumVars)
		for i, on := range whole {
			if on {
				ilpOpt.Incumbent[b.varOfMod[i]] = true
				for _, sv := range b.sliceVars[i] {
					ilpOpt.Incumbent[sv] = true
				}
			}
		}
	}
	sol, err := ilp.Solve(b.problem, ilpOpt)
	if err != nil {
		nodes := sol.Nodes + warmNodes
		return Result{Nodes: nodes}, fmt.Errorf("overlap: %w after %d nodes", err, nodes)
	}
	res := b.extract(sol)
	res.Nodes += warmNodes
	return res, nil
}

// basicSelection solves the basic formulation of mods at a quarter of the
// node limit and reports which modules it selects (nil when that fails)
// and the nodes it took. Its problem is dropped before the sliceable one
// is built.
func basicSelection(mods []*module.Module, opt Options) ([]bool, int64) {
	opt.Sliceable = false
	b := newBuilder(mods, opt)
	sol, err := ilp.Solve(b.problem, ilp.Options{NodeLimit: opt.NodeLimit / 4, Interrupt: opt.Interrupt})
	if err != nil {
		return nil, sol.Nodes
	}
	sel := make([]bool, len(mods))
	for i := range mods {
		sel[i] = sol.Values[b.varOfMod[i]]
	}
	return sel, sol.Nodes
}

// builder translates modules into an ILP.
type builder struct {
	mods    []*module.Module
	opt     Options
	problem *ilp.Problem

	// Per-module variable layout.
	varOfMod  []int   // x_i for unsliceable modules, x_{i0} for sliceable
	sliceVars [][]int // x_{ij} per slice, nil for unsliceable
	// elemVar[i][k] is the variable that covers mods[i].Elements[k].
	elemVar [][]int
	size    []int64 // Size(x) per variable
}

// occurrence pairs an element with a variable.
type occurrence struct {
	g netlist.ID
	v int
}

func newBuilder(mods []*module.Module, opt Options) *builder {
	b := &builder{mods: mods, opt: opt, problem: &ilp.Problem{}}
	b.varOfMod = make([]int, len(mods))
	b.sliceVars = make([][]int, len(mods))
	b.elemVar = make([][]int, len(mods))

	newVar := func() int {
		v := b.problem.NumVars
		b.problem.NumVars++
		b.size = append(b.size, 0)
		return v
	}

	var owner []int // slice owning each element, reused per module
	nSlices, nSliceable := 0, 0
	for i, m := range mods {
		ev := make([]int, len(m.Elements))
		b.elemVar[i] = ev
		if !opt.Sliceable || !m.Sliceable() {
			x := newVar()
			b.varOfMod[i] = x
			for k := range ev {
				ev[k] = x
			}
			continue
		}
		// Sliceable: x_{i0} plus one variable per slice. Elements in
		// exactly one slice map to that slice's variable; everything else
		// (shared or unassigned) maps to x_{i0}. owner[k] is the slice
		// holding m.Elements[k], -1 for none and -2 for several.
		x0 := newVar()
		b.varOfMod[i] = x0
		svars := make([]int, len(m.Slices))
		for si := range m.Slices {
			svars[si] = newVar()
		}
		b.sliceVars[i] = svars
		owner = owner[:0]
		for range m.Elements {
			owner = append(owner, -1)
		}
		for si, sl := range m.Slices {
			for _, g := range sl {
				k, ok := slices.BinarySearch(m.Elements, g)
				if !ok {
					continue
				}
				if owner[k] == -1 {
					owner[k] = si
				} else if owner[k] != si {
					owner[k] = -2
				}
			}
		}
		for k, o := range owner {
			ev[k] = x0
			if o >= 0 {
				ev[k] = svars[o]
			}
		}
		nSlices += len(svars)
		nSliceable++
	}

	// Sizes, and every (element, variable) occurrence in (element,
	// variable) order. A module lists an element once and variables are
	// numbered in module order, so a stable counting pass keyed by element
	// over the modules in order gives that order without comparisons.
	n := 0
	lo, hi := netlist.ID(0), netlist.ID(-1)
	for _, m := range mods {
		if len(m.Elements) == 0 {
			continue
		}
		if n == 0 || m.Elements[0] < lo {
			lo = m.Elements[0]
		}
		hi = max(hi, m.Elements[len(m.Elements)-1])
		n += len(m.Elements)
	}
	start := make([]int, hi-lo+2) // first slot of each element, once summed
	for _, m := range mods {
		for _, g := range m.Elements {
			start[g-lo+1]++
		}
	}
	// An element in two or more modules gives at most one packing row, of
	// at most one term per module.
	nPack, nPackTerms := 0, 0
	for _, c := range start {
		if c >= 2 {
			nPack++
			nPackTerms += c
		}
	}
	for j := 1; j < len(start); j++ {
		start[j] += start[j-1]
	}
	occ := make([]occurrence, n)
	for i, m := range mods {
		for k, g := range m.Elements {
			v := b.elemVar[i][k]
			b.size[v]++
			occ[start[g-lo]] = occurrence{g, v}
			start[g-lo]++
		}
	}

	// The linking, MinSlices and packing rows are reserved at once, and
	// their terms are carved from one backing slice: three terms per
	// slice across the linking and MinSlices rows, one more per MinSlices
	// row, and the packing terms. row closes the terms appended since from
	// into a row of its own.
	b.problem.Constraints = make([]ilp.Constraint, 0, nSlices+nSliceable+nPack+1)
	terms := make([]ilp.Term, 0, 3*nSlices+nSliceable+nPackTerms)
	row := func(from int) []ilp.Term { return terms[from:len(terms):len(terms)] }
	for i, svars := range b.sliceVars {
		if svars == nil {
			continue
		}
		x0 := b.varOfMod[i]
		// Linking: x_{i0} >= x_{ij}.
		for _, sv := range svars {
			from := len(terms)
			terms = append(terms, ilp.Term{Var: x0, Coef: 1}, ilp.Term{Var: sv, Coef: -1})
			b.problem.AddConstraint(row(from), ilp.GE, 0)
		}
		// MinSlices: sum_j x_{ij} - MinSlices*x_{i0} >= 0.
		from := len(terms)
		for _, sv := range svars {
			terms = append(terms, ilp.Term{Var: sv, Coef: 1})
		}
		minSlices := min(opt.MinSlices, len(svars))
		terms = append(terms, ilp.Term{Var: x0, Coef: -int64(minSlices)})
		b.problem.AddConstraint(row(from), ilp.GE, 0)
	}

	// Overlap constraints: one per element whose covering modules use two
	// or more distinct variables. Rows are added in ascending element
	// order, a duplicate row folding into its first occurrence. An exact
	// solve is order-invariant, but a node-limited search stops at
	// whatever incumbent the traversal found first, and the traversal
	// follows problem layout — so row order is part of the
	// byte-identical-reports contract.
	//
	// Packing rows start at constraint firstRow. rowOf maps a row's
	// variables, as varints, to its offset from there; elems counts the
	// shared elements each row stands for, the duplicates folded into it
	// included.
	firstRow := len(b.problem.Constraints)
	rowOf := make(map[string]int)
	var elems []int64
	var key []byte
	for lo := 0; lo < len(occ); {
		hi := lo + 1
		for hi < len(occ) && occ[hi].g == occ[lo].g {
			hi++
		}
		group := occ[lo:hi]
		lo = hi
		if len(group) < 2 {
			continue
		}
		from := len(terms)
		key = key[:0]
		for _, o := range group {
			if len(terms) == from || terms[len(terms)-1].Var != o.v {
				terms = append(terms, ilp.Term{Var: o.v, Coef: 1})
				key = binary.AppendUvarint(key, uint64(o.v))
			}
		}
		if len(terms)-from < 2 {
			terms = terms[:from]
			continue
		}
		if ri, ok := rowOf[string(key)]; ok {
			elems[ri]++
			terms = terms[:from]
			continue
		}
		rowOf[string(key)] = len(elems)
		elems = append(elems, 1)
		b.problem.AddConstraint(row(from), ilp.LE, 1)
	}

	// Objective.
	b.problem.Objective = make([]int64, b.problem.NumVars)
	switch opt.Objective {
	case MaxCoverage:
		// Lexicographic: maximize covered elements, then prefer FEWER
		// modules. Scaling sizes by K > #modules and charging one unit per
		// selected module representative makes the module-count term a
		// pure tie-breaker; it can never trade away an element of
		// coverage. This is what keeps a verified RAM ahead of the
		// equal-coverage pile of muxes and per-word registers it overlaps
		// (abstraction quality, Section VI-A).
		b.problem.Sense = ilp.Maximize
		k := int64(len(mods) + 1)
		for v, s := range b.size {
			b.problem.Objective[v] = s * k
		}
		for i := range mods {
			b.problem.Objective[b.varOfMod[i]] -= 1
		}
		// Lagrangian multipliers: K per shared element a packing row
		// stands for. A variable's reduced objective is then K times its
		// unshared elements minus its tie-break, and the solver's
		// Lagrangian bound is K times the union of elements the live
		// modules can still cover, less the module-count term.
		for ri, n := range elems {
			b.problem.Constraints[firstRow+ri].Multiplier = n * k
		}
	case MinModules:
		b.problem.Sense = ilp.Minimize
		for i := range mods {
			b.problem.Objective[b.varOfMod[i]] = 1
		}
		// Coverage floor: sum of Size(x)*x >= target.
		var terms []ilp.Term
		for v, s := range b.size {
			if s > 0 {
				terms = append(terms, ilp.Term{Var: v, Coef: s})
			}
		}
		b.problem.AddConstraint(terms, ilp.GE, int64(opt.CoverageTarget))
	}
	return b
}

// extract rebuilds the selected module set from the ILP solution.
func (b *builder) extract(sol ilp.Solution) Result {
	res := Result{Optimal: sol.Optimal, Nodes: sol.Nodes}
	for i, m := range b.mods {
		if !sol.Values[b.varOfMod[i]] {
			continue
		}
		if b.sliceVars[i] == nil {
			res.Selected = append(res.Selected, m)
			continue
		}
		// Rebuild from the selected slices + the shared bucket.
		var kept [][]netlist.ID
		var elements []netlist.ID
		for si, sv := range b.sliceVars[i] {
			if sol.Values[sv] {
				kept = append(kept, m.Slices[si])
				elements = append(elements, m.Slices[si]...)
			}
		}
		for k, g := range m.Elements {
			if b.elemVar[i][k] == b.varOfMod[i] {
				elements = append(elements, g)
			}
		}
		sliced := module.New(m.Type, len(kept), elements)
		sliced.Name = m.Name
		sliced.Slices = kept
		sliced.Ports = m.Ports
		sliced.Attr = m.Attr
		if len(kept) < len(m.Slices) {
			sliced.Name = fmt.Sprintf("%s(sliced %d/%d)", m.Name, len(kept), len(m.Slices))
		}
		res.Selected = append(res.Selected, sliced)
	}
	res.Coverage = module.CoverageCount(res.Selected)
	return res
}
