package overlap

import (
	"fmt"

	"netlistre/internal/ilp"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
)

// ResolveByComponent is the oracle for Resolve: overlap resolution as it
// was done before the solver split independent components itself. Under
// MaxCoverage, modules overlapping no other module are selected outright
// and every overlap-connected component is solved as its own ILP, with
// its own basic-formulation warm start when sliceable; MinModules couples
// everything through the global coverage floor and is solved as one
// program. Selected lists the isolated modules first, in module order,
// then each component's selection, in the order of its union-find root.
// defaultNodeLimit caps each component's search.
func ResolveByComponent(mods []*module.Module, opt Options) (Result, error) {
	if opt.MinSlices <= 0 {
		opt.MinSlices = 2
	}
	if opt.Objective == MinModules {
		b := newBuilder(mods, opt)
		sol, err := ilp.Solve(b.problem, ilp.Options{NodeLimit: defaultNodeLimit, Interrupt: opt.Interrupt})
		if err != nil {
			return Result{}, fmt.Errorf("overlap: %w", err)
		}
		return b.extract(sol), nil
	}

	// Union-find over modules sharing elements.
	parent := make([]int, len(mods))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	owner := make(map[netlist.ID]int)
	for i, m := range mods {
		for _, g := range m.Elements {
			if j, ok := owner[g]; ok {
				parent[find(i)] = find(j)
			} else {
				owner[g] = i
			}
		}
	}

	var res Result
	res.Optimal = true
	comps := make(map[int][]int)
	for i := range mods {
		comps[find(i)] = append(comps[find(i)], i)
	}
	// Singleton components are isolated modules: always selected under
	// MaxCoverage. Collect then sort by module index: map iteration order
	// must not leak into the selection order (the report is promised to
	// be byte-identical across runs and worker counts).
	var singles []int
	for r, members := range comps {
		if len(members) == 1 {
			singles = append(singles, members[0])
			delete(comps, r)
		}
	}
	sortInts(singles)
	for _, i := range singles {
		res.Selected = append(res.Selected, mods[i])
	}
	var reps []int
	for r := range comps {
		reps = append(reps, r)
	}
	sortInts(reps)
	for _, r := range reps {
		sub := make([]*module.Module, len(comps[r]))
		for k, i := range comps[r] {
			sub[k] = mods[i]
		}
		b := newBuilder(sub, opt)
		ilpOpt := ilp.Options{NodeLimit: defaultNodeLimit, Interrupt: opt.Interrupt}
		if opt.Sliceable {
			// Warm start the sliceable search with the basic formulation's
			// optimum: a whole-module selection is always feasible at slice
			// granularity, and the strong incumbent prunes most of the
			// slice-rearrangement space.
			basicOpt := opt
			basicOpt.Sliceable = false
			bb := newBuilder(sub, basicOpt)
			bsol, err := ilp.Solve(bb.problem, ilp.Options{NodeLimit: defaultNodeLimit / 4, Interrupt: opt.Interrupt})
			res.Nodes += bsol.Nodes
			if err == nil {
				inc := make([]bool, b.problem.NumVars)
				for i := range sub {
					if !bsol.Values[bb.varOfMod[i]] {
						continue
					}
					inc[b.varOfMod[i]] = true
					for _, sv := range b.sliceVars[i] {
						inc[sv] = true
					}
				}
				ilpOpt.Incumbent = inc
			}
		}
		sol, err := ilp.Solve(b.problem, ilpOpt)
		if err != nil {
			return Result{}, fmt.Errorf("overlap: %w", err)
		}
		part := b.extract(sol)
		res.Selected = append(res.Selected, part.Selected...)
		res.Optimal = res.Optimal && part.Optimal
		res.Nodes += part.Nodes
	}
	res.Coverage = module.CoverageCount(res.Selected)
	return res, nil
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
