package overlap

import (
	"math/rand"
	"slices"
	"testing"

	"netlistre/internal/ilp"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
)

func ids(xs ...int) []netlist.ID {
	out := make([]netlist.ID, len(xs))
	for i, x := range xs {
		out[i] = netlist.ID(x)
	}
	return out
}

// figure8 builds the paper's Figure 8 scenario: a 5-bit mux (3 gates per
// slice + 1 shared inverter) whose slices 4 and 5 overlap a 40-element RAM.
func figure8() []*module.Module {
	mux := module.New(module.Mux, 5, nil)
	var slices [][]netlist.ID
	var all []netlist.ID
	for s := 0; s < 5; s++ {
		sl := ids(10*s+1, 10*s+2, 10*s+3)
		slices = append(slices, sl)
		all = append(all, sl...)
	}
	all = append(all, 99) // shared inverter
	for i := range slices {
		slices[i] = append(slices[i], 99)
	}
	mux.SetElements(all)
	mux.Slices = slices

	ramElems := ids(31, 32, 33, 41, 42, 43) // overlap slices 4,5
	for i := 200; i < 234; i++ {
		ramElems = append(ramElems, netlist.ID(i))
	}
	ram := module.New(module.RAM, 40, ramElems)
	return []*module.Module{mux, ram}
}

func TestFigure8BasicFormulation(t *testing.T) {
	mods := figure8()
	res, err := Resolve(mods, Options{Objective: MaxCoverage, Sliceable: false})
	if err != nil {
		t.Fatal(err)
	}
	// Basic: whole mux (16) vs whole RAM (40): RAM wins, mux discarded.
	if len(res.Selected) != 1 || res.Selected[0].Type != module.RAM {
		t.Fatalf("selected = %v", names(res.Selected))
	}
	if res.Coverage != 40 {
		t.Errorf("coverage = %d, want 40", res.Coverage)
	}
}

func TestFigure8SliceableFormulation(t *testing.T) {
	mods := figure8()
	res, err := Resolve(mods, Options{Objective: MaxCoverage, Sliceable: true})
	if err != nil {
		t.Fatal(err)
	}
	// Sliceable: RAM (40) + mux slices 1-3 (9) + shared inverter (1) = 50.
	if res.Coverage != 50 {
		t.Fatalf("coverage = %d, want 50 (selected %v)", res.Coverage, names(res.Selected))
	}
	if _, ok := module.Disjoint(res.Selected); !ok {
		t.Error("selection overlaps")
	}
	var mux *module.Module
	for _, m := range res.Selected {
		if m.Type == module.Mux {
			mux = m
		}
	}
	if mux == nil || len(mux.Slices) != 3 {
		t.Errorf("mux not sliced to 3 slices: %v", names(res.Selected))
	}
}

func TestMinModulesObjective(t *testing.T) {
	// Three disjoint modules of sizes 30, 20, 10; target 45 -> {30, 20}.
	var mods []*module.Module
	base := 0
	for _, size := range []int{30, 20, 10} {
		var e []netlist.ID
		for i := 0; i < size; i++ {
			e = append(e, netlist.ID(base+i))
		}
		base += size
		mods = append(mods, module.New(module.Unknown, size, e))
	}
	res, err := Resolve(mods, Options{Objective: MinModules, CoverageTarget: 45})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Errorf("selected %d modules, want 2", len(res.Selected))
	}
	if res.Coverage < 45 {
		t.Errorf("coverage = %d, want >= 45", res.Coverage)
	}
}

func TestMinModulesInfeasibleTarget(t *testing.T) {
	m := module.New(module.Unknown, 3, ids(1, 2, 3))
	_, err := Resolve([]*module.Module{m}, Options{Objective: MinModules, CoverageTarget: 10})
	if err == nil {
		t.Error("expected infeasibility error")
	}
}

func TestSliceableNeverWorseThanBasic(t *testing.T) {
	// Property from Table 4: sliceable coverage >= basic coverage on random
	// overlapping module sets.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		var mods []*module.Module
		nMods := 3 + rng.Intn(5)
		for mi := 0; mi < nMods; mi++ {
			nSlices := 2 + rng.Intn(4)
			var slices [][]netlist.ID
			var all []netlist.ID
			for s := 0; s < nSlices; s++ {
				var sl []netlist.ID
				for k := 0; k < 1+rng.Intn(3); k++ {
					sl = append(sl, netlist.ID(rng.Intn(60)))
				}
				slices = append(slices, sl)
				all = append(all, sl...)
			}
			m := module.New(module.Mux, nSlices, all)
			if rng.Intn(2) == 0 {
				m.Slices = slices
			}
			mods = append(mods, m)
		}
		basic, err := Resolve(mods, Options{Objective: MaxCoverage})
		if err != nil {
			t.Fatal(err)
		}
		sliced, err := Resolve(mods, Options{Objective: MaxCoverage, Sliceable: true})
		if err != nil {
			t.Fatal(err)
		}
		if sliced.Coverage < basic.Coverage {
			t.Fatalf("trial %d: sliceable %d < basic %d", trial, sliced.Coverage, basic.Coverage)
		}
		if _, ok := module.Disjoint(basic.Selected); !ok {
			t.Fatalf("trial %d: basic selection overlaps", trial)
		}
		if _, ok := module.Disjoint(sliced.Selected); !ok {
			t.Fatalf("trial %d: sliceable selection overlaps", trial)
		}
	}
}

func TestMinSlicesEnforced(t *testing.T) {
	// A 3-slice module fully overlapped on 2 slices: with MinSlices=2 the
	// remaining single slice cannot stand alone, so the big competitor
	// wins everything.
	mux := module.New(module.Mux, 3, ids(1, 2, 3))
	mux.Slices = [][]netlist.ID{ids(1), ids(2), ids(3)}
	big := module.New(module.RAM, 10, ids(2, 3, 10, 11, 12, 13, 14, 15, 16, 17))
	res, err := Resolve([]*module.Module{mux, big}, Options{
		Objective: MaxCoverage, Sliceable: true, MinSlices: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Selected {
		if m.Type == module.Mux {
			t.Errorf("mux selected with %d slices despite MinSlices=2", len(m.Slices))
		}
	}
	if res.Coverage != 10 {
		t.Errorf("coverage = %d, want 10", res.Coverage)
	}
}

func TestBuilderPackingRows(t *testing.T) {
	// Elements 1 and 2 are covered by the plain module's x_0 and by the
	// sliceable module's slice 0, which owns both: one packing row over
	// {x_0, slice 0's variable}, standing for two shared elements.
	plain := module.New(module.Mux, 3, ids(1, 2, 10))
	sl := module.New(module.Mux, 2, ids(1, 2, 3, 4))
	sl.Slices = [][]netlist.ID{ids(1, 2), ids(3, 4)}
	b := newBuilder([]*module.Module{plain, sl}, Options{Sliceable: true, MinSlices: 2})
	p := b.problem
	slice0 := b.sliceVars[1][0]
	if want := []int{b.varOfMod[0], b.varOfMod[0], b.varOfMod[0]}; !slices.Equal(b.elemVar[0], want) {
		t.Errorf("plain element variables = %v, want %v", b.elemVar[0], want)
	}
	// Two linking rows and one MinSlices row come first.
	if len(p.Constraints) != 4 {
		t.Fatalf("%d constraints, want 4", len(p.Constraints))
	}
	row := p.Constraints[3]
	wantTerms := []ilp.Term{{Var: b.varOfMod[0], Coef: 1}, {Var: slice0, Coef: 1}}
	if !slices.Equal(row.Terms, wantTerms) || row.Rel != ilp.LE || row.RHS != 1 {
		t.Errorf("packing row = %+v, want %v <= 1", row, wantTerms)
	}
	if k := int64(3); row.Multiplier != 2*k {
		t.Errorf("multiplier = %d, want 2K = %d", row.Multiplier, 2*k)
	}
}

func names(mods []*module.Module) []string {
	var out []string
	for _, m := range mods {
		out = append(out, m.Name)
	}
	return out
}
