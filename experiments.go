package netlistre

// This file implements the benchmark harness that regenerates every table
// of the paper's evaluation (Section V). Absolute numbers differ from the
// paper — the test articles are synthetic equivalents (see DESIGN.md) — but
// each table reproduces the paper's qualitative shape: which articles score
// high, how much overlap resolution costs, how the sliceable ILP compares
// to the basic one, how BigSoC partitions, and what the trojans add.

import (
	"fmt"
	"io"
	"sort"
	"time"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/module"
	"netlistre/internal/overlap"
	"netlistre/internal/partition"
	"netlistre/internal/simplify"
)

// reportTypes are the module-type columns of Table 3, in print order.
var reportTypes = []module.Type{
	module.Mux, module.Decoder, module.Demux, module.Adder,
	module.Subtractor, module.ParityTree, module.Counter,
	module.ShiftRegister, module.RAM, module.MultibitRegister,
	module.WordOp, module.Gating, module.PopCount, module.Fused,
}

// Table2Row is one line of the netlist inventory.
type Table2Row struct {
	Name        string
	Description string
	Inputs      int
	Outputs     int
	Gates       int
	Latches     int
}

// Table2 builds the netlist inventory of the eight test articles.
func Table2() []Table2Row {
	var rows []Table2Row
	for _, name := range gen.ArticleNames() {
		nl, err := gen.Article(name)
		if err != nil {
			panic(err)
		}
		s := nl.Stats()
		rows = append(rows, Table2Row{
			Name:        name,
			Description: gen.ArticleDescriptions[name],
			Inputs:      s.Inputs,
			Outputs:     s.Outputs,
			Gates:       s.Gates,
			Latches:     s.Latches,
		})
	}
	return rows
}

// WriteTable2 renders Table 2.
func WriteTable2(w io.Writer) {
	fmt.Fprintf(w, "Table 2: netlists used in experiments\n")
	fmt.Fprintf(w, "%-8s %6s %6s %7s %7s  %s\n", "design", "in", "out", "gates", "latch", "description")
	for _, r := range Table2() {
		fmt.Fprintf(w, "%-8s %6d %6d %7d %7d  %s\n",
			r.Name, r.Inputs, r.Outputs, r.Gates, r.Latches, r.Description)
	}
}

// Table3Row is one article's coverage result. Counts follows reportTypes.
type Table3Row struct {
	Name           string
	Gates, Latches int
	// Before holds module counts before overlap resolution (the paper's
	// white rows), After the counts after resolution (shaded rows).
	Before, After map[module.Type]int
	// CoverageBefore/After are element-coverage fractions.
	CoverageBefore, CoverageAfter float64
	Runtime                       time.Duration
}

// Table3 runs the full portfolio on every article.
func Table3() []Table3Row {
	var rows []Table3Row
	for _, name := range gen.ArticleNames() {
		nl, err := gen.Article(name)
		if err != nil {
			panic(err)
		}
		rows = append(rows, analyzeRow(name, nl, core.Options{}))
	}
	return rows
}

func analyzeRow(name string, nl *Netlist, opt core.Options) Table3Row {
	opt.Overlap.Sliceable = true
	rep := core.Analyze(nl, opt)
	s := nl.Stats()
	return Table3Row{
		Name:           name,
		Gates:          s.Gates,
		Latches:        s.Latches,
		Before:         rep.CountsBefore,
		After:          rep.CountsAfter,
		CoverageBefore: rep.CoverageFractionBefore(),
		CoverageAfter:  rep.CoverageFraction(),
		Runtime:        rep.Runtime,
	}
}

// WriteTable3 renders Table 3 in the paper's two-row-per-article format.
func WriteTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "Table 3: coverage results (per article: modules found / after overlap resolution)\n")
	fmt.Fprintf(w, "%-8s %7s", "design", "gates")
	for _, ty := range reportTypes {
		fmt.Fprintf(w, " %7.7s", ty.String())
	}
	fmt.Fprintf(w, " %7s %8s\n", "cov%", "time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %7d", r.Name, r.Gates)
		for _, ty := range reportTypes {
			fmt.Fprintf(w, " %7d", r.Before[ty])
		}
		fmt.Fprintf(w, " %6.1f%% %8s\n", 100*r.CoverageBefore, r.Runtime.Round(time.Millisecond))
		fmt.Fprintf(w, "%-8s %7s", "", "")
		for _, ty := range reportTypes {
			fmt.Fprintf(w, " %7d", r.After[ty])
		}
		fmt.Fprintf(w, " %6.1f%%\n", 100*r.CoverageAfter)
	}
}

// Table4Row compares the basic and sliceable ILP formulations. The
// Optimal fields report whether every component's ILP was proven optimal
// rather than stopped at the node limit.
type Table4Row struct {
	Name              string
	BasicCoverage     float64
	BasicModules      int
	BasicOptimal      bool
	SliceableCoverage float64
	SliceableModules  int
	SliceableOptimal  bool
}

// Table4 reruns overlap resolution under both formulations.
func Table4() []Table4Row {
	var rows []Table4Row
	for _, name := range gen.ArticleNames() {
		nl, err := gen.Article(name)
		if err != nil {
			panic(err)
		}
		stats := nl.Stats()
		total := float64(stats.Gates + stats.Latches)
		opt := core.Options{}
		opt.Overlap.Sliceable = false
		repB := core.Analyze(nl, opt)
		// Re-resolve the same module set sliceably for an exact
		// apples-to-apples comparison.
		resS, err := overlap.Resolve(repB.All, overlap.Options{Sliceable: true})
		if err != nil {
			panic(err)
		}
		rows = append(rows, Table4Row{
			Name:              name,
			BasicCoverage:     float64(repB.CoverageAfter) / total,
			BasicModules:      len(repB.Resolved),
			BasicOptimal:      repB.OverlapOptimal,
			SliceableCoverage: float64(resS.Coverage) / total,
			SliceableModules:  len(resS.Selected),
			SliceableOptimal:  resS.Optimal,
		})
	}
	return rows
}

// WriteTable4 renders Table 4.
func WriteTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "Table 4: sliceable vs basic ILP formulation\n")
	fmt.Fprintf(w, "%-8s %10s %9s %12s %11s %15s\n", "design", "basic cov", "basic #m", "sliceable cov", "sliceable #m", "proven optimal")
	yn := map[bool]string{true: "yes", false: "no"}
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %9.1f%% %9d %11.1f%% %11d %15s\n",
			r.Name, 100*r.BasicCoverage, r.BasicModules,
			100*r.SliceableCoverage, r.SliceableModules,
			yn[r.BasicOptimal]+" / "+yn[r.SliceableOptimal])
	}
}

// Table5Result is the BigSoC partition accounting.
type Table5Result struct {
	RawGates, SimplifiedGates int
	Cores                     []Table5Row
	MultiOwned, Unowned       int
	UnownedFraction           float64
}

// Table5Row is one core's partition size.
type Table5Row struct {
	Name     string
	Latches  int
	Elements int
}

// Table5 builds BigSoC, simplifies it, and partitions by reset tree.
func Table5() Table5Result {
	soc := gen.BigSoC()
	raw := soc.Stats()
	simp := simplify.Run(soc)
	nl := simp.Netlist
	var resets []ID
	for _, name := range gen.BigSoCCoreNames() {
		resets = append(resets, nl.FindByName("rst_"+name))
	}
	s := partition.ByResets(nl, resets)
	res := Table5Result{
		RawGates:        raw.Gates,
		SimplifiedGates: nl.Stats().Gates,
		MultiOwned:      s.MultiOwned,
		Unowned:         s.Unowned,
	}
	for _, p := range s.Partitions {
		res.Cores = append(res.Cores, Table5Row{
			Name:     p.Name,
			Latches:  len(p.Latches),
			Elements: len(p.Elements),
		})
	}
	if g := nl.Stats().Gates; g > 0 {
		res.UnownedFraction = float64(s.Unowned) / float64(g)
	}
	return res
}

// WriteTable5 renders Table 5.
func WriteTable5(w io.Writer, res Table5Result) {
	fmt.Fprintf(w, "Table 5: BigSoC partition information\n")
	fmt.Fprintf(w, "simplification: %d -> %d combinational elements (%.0f%% reduction)\n",
		res.RawGates, res.SimplifiedGates,
		100*(1-float64(res.SimplifiedGates)/float64(res.RawGates)))
	fmt.Fprintf(w, "%-16s %8s %9s\n", "core (reset)", "latches", "elements")
	for _, c := range res.Cores {
		fmt.Fprintf(w, "%-16s %8d %9d\n", c.Name, c.Latches, c.Elements)
	}
	fmt.Fprintf(w, "multi-owned gates: %d; unowned gates: %d (%.1f%%, interconnect)\n",
		res.MultiOwned, res.Unowned, 100*res.UnownedFraction)
}

// Table6Row is one BigSoC core's coverage.
type Table6Row struct {
	Name     string
	Gates    int
	Latches  int
	Modules  int
	Coverage float64
	Runtime  time.Duration
}

// Table6 analyzes each BigSoC partition with the full portfolio.
func Table6() []Table6Row {
	soc := gen.BigSoC()
	simp := simplify.Run(soc)
	nl := simp.Netlist
	var resets []ID
	for _, name := range gen.BigSoCCoreNames() {
		resets = append(resets, nl.FindByName("rst_"+name))
	}
	s := partition.ByResets(nl, resets)
	var rows []Table6Row
	for _, p := range s.Partitions {
		sub, _ := partition.Extract(nl, p)
		opt := core.Options{}
		opt.Overlap.Sliceable = true
		rep := core.Analyze(sub, opt)
		st := sub.Stats()
		rows = append(rows, Table6Row{
			Name:     p.Name,
			Gates:    st.Gates,
			Latches:  st.Latches,
			Modules:  len(rep.Resolved),
			Coverage: rep.CoverageFraction(),
			Runtime:  rep.Runtime,
		})
	}
	return rows
}

// WriteTable6 renders Table 6.
func WriteTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintf(w, "Table 6: coverage results on BigSoC partitions\n")
	fmt.Fprintf(w, "%-16s %7s %7s %8s %8s %9s\n", "core", "gates", "latch", "modules", "cov%", "time")
	var totalGates int
	var covered float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %7d %7d %8d %7.1f%% %9s\n",
			r.Name, r.Gates, r.Latches, r.Modules, 100*r.Coverage,
			r.Runtime.Round(time.Millisecond))
		totalGates += r.Gates + r.Latches
		covered += r.Coverage * float64(r.Gates+r.Latches)
	}
	if totalGates > 0 {
		fmt.Fprintf(w, "%-16s %23s %8s %7.1f%%\n", "overall", "", "", 100*covered/float64(totalGates))
	}
}

// Table7Row compares a clean article with its trojan-inserted version.
type Table7Row struct {
	Name                       string
	CleanGates, CleanLatches   int
	TrojanGates, TrojanLatches int
	DeltaGates, DeltaLatches   int
}

// Table7 builds the trojan-inserted designs and reports their size deltas.
func Table7() []Table7Row {
	pairs := []struct {
		name        string
		clean, troj *Netlist
	}{
		{"evoter", gen.EVoter(), gen.EVoterTrojaned()},
		{"oc8051", gen.OC8051(), gen.OC8051Trojaned()},
	}
	var rows []Table7Row
	for _, p := range pairs {
		cs, ts := p.clean.Stats(), p.troj.Stats()
		rows = append(rows, Table7Row{
			Name:          p.name,
			CleanGates:    cs.Gates,
			CleanLatches:  cs.Latches,
			TrojanGates:   ts.Gates,
			TrojanLatches: ts.Latches,
			DeltaGates:    ts.Gates - cs.Gates,
			DeltaLatches:  ts.Latches - cs.Latches,
		})
	}
	return rows
}

// WriteTable7 renders Table 7.
func WriteTable7(w io.Writer, rows []Table7Row) {
	fmt.Fprintf(w, "Table 7: details of trojan-inserted designs\n")
	fmt.Fprintf(w, "%-8s %12s %12s %13s %13s\n", "design", "clean gates", "clean latch", "trojan gates", "trojan latch")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %12d %12d %13d (+%d) %7d (+%d)\n",
			r.Name, r.CleanGates, r.CleanLatches,
			r.TrojanGates, r.DeltaGates, r.TrojanLatches, r.DeltaLatches)
	}
}

// Table8Row holds module counts for one design variant.
type Table8Row struct {
	Name          string
	Before, After map[module.Type]int
	Coverage      float64
}

// Table8 runs inference on the clean and trojaned articles. The paper shows
// both pre- and post-resolution counts because resolution may discard the
// very modules that reveal the trojan.
func Table8() []Table8Row {
	variants := []struct {
		name string
		nl   *Netlist
	}{
		{"evoter", gen.EVoter()},
		{"evoter-trojan", gen.EVoterTrojaned()},
		{"oc8051", gen.OC8051()},
		{"oc8051-trojan", gen.OC8051Trojaned()},
	}
	var rows []Table8Row
	for _, v := range variants {
		opt := core.Options{}
		opt.Overlap.Sliceable = true
		rep := core.Analyze(v.nl, opt)
		rows = append(rows, Table8Row{
			Name:     v.name,
			Before:   rep.CountsBefore,
			After:    rep.CountsAfter,
			Coverage: rep.CoverageFraction(),
		})
	}
	return rows
}

// WriteTable8 renders Table 8.
func WriteTable8(w io.Writer, rows []Table8Row) {
	fmt.Fprintf(w, "Table 8: trojan analysis results (module counts before resolution)\n")
	fmt.Fprintf(w, "%-14s", "design")
	for _, ty := range reportTypes {
		fmt.Fprintf(w, " %7.7s", ty.String())
	}
	fmt.Fprintf(w, " %7s\n", "cov%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s", r.Name)
		for _, ty := range reportTypes {
			fmt.Fprintf(w, " %7d", r.Before[ty])
		}
		fmt.Fprintf(w, " %6.1f%%\n", 100*r.Coverage)
	}
}

// TrojanDelta summarizes, per module type, the extra modules the trojan
// introduced — the signal a human analyst follows (Section V-D).
func TrojanDelta(clean, troj Table8Row) map[module.Type]int {
	out := make(map[module.Type]int)
	var types []module.Type
	for ty := range troj.Before {
		types = append(types, ty)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, ty := range types {
		if d := troj.Before[ty] - clean.Before[ty]; d != 0 {
			out[ty] = d
		}
	}
	return out
}
