// Command revan (Reverse-Engineering Analyzer) runs the full inference
// portfolio on a gate-level netlist and prints the inferred module report.
//
// Usage:
//
//	revan -in design.v                 # analyze a structural Verilog netlist
//	revan -article oc8051              # analyze a built-in synthetic article
//	revan -article bigsoc -simplify -partition auto
//	revan -in design.v -objective min -target 0.6
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"netlistre"
)

// exitDegraded is returned when the analysis completed but the report is
// degraded (timed out, canceled, or a stage failed): the output is usable
// but partial, which scripts may want to distinguish from success (0) and
// hard errors (1).
const exitDegraded = 3

// exitRTLCheck is returned when -emit-rtl wrote the decompiled RTL but
// the round-trip equivalence self-check did not pass.
const exitRTLCheck = 4

func main() {
	var (
		inFile    = flag.String("in", "", "structural Verilog netlist to analyze")
		blifLuts  = flag.Bool("blif-luts", false, "read every BLIF cover table as a native k-input LUT cell (for foreign LUT-mapped FPGA BLIF without '# lut' markers)")
		article   = flag.String("article", "", "built-in synthetic article (see -list)")
		list      = flag.Bool("list", false, "list built-in articles and exit")
		doSimp    = flag.Bool("simplify", false, "run structural simplification first")
		partFlag  = flag.String("partition", "", "comma-separated reset inputs to partition by, or 'auto' for BigSoC")
		objective = flag.String("objective", "max", "overlap resolution objective: max (coverage) or min (modules)")
		target    = flag.Float64("target", 0.5, "coverage target fraction for -objective min")
		basic     = flag.Bool("basic-ilp", false, "use the basic (non-sliceable) ILP formulation")
		skipQBF   = flag.Bool("skip-modmatch", false, "skip QBF word-operator matching")
		verbose   = flag.Bool("v", false, "list every resolved module")
		cands     = flag.Bool("candidates", false, "also report unknown-bitslice candidate modules")
		dotFile   = flag.String("dot", "", "write the abstracted netlist as Graphviz DOT to this file")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON instead of text")
		workers   = flag.Int("workers", 0, "pipeline worker budget (0 = GOMAXPROCS, 1 = serial)")
		trace     = flag.Bool("trace", false, "print live per-stage progress to stderr (the final stage table is always in the report)")
		timeout   = flag.Duration("timeout", 0, "whole-run analysis budget (0 = none); a timed-out run prints a partial report and exits 3")
		stCache   = flag.Int("stage-cache", 0, "memoize stage artifacts in an in-process store of this many entries (0 disables); repeated analyses in one run, e.g. -partition, resume from it")
		fprint    = flag.Bool("fingerprint", false, "print the netlist's canonical SHA-256 fingerprint and exit")
		emitRTL   = flag.String("emit-rtl", "", "decompile the analyzed design to word-level Verilog at this path; the emission is self-checked for round-trip equivalence and a failed check exits 4")
	)
	flag.Parse()

	if *list {
		listArticles(os.Stdout)
		return
	}

	nl, err := loadNetlist(*inFile, *article, *blifLuts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "revan:", err)
		os.Exit(1)
	}
	if err := nl.Check(); err != nil {
		fmt.Fprintln(os.Stderr, "revan: invalid netlist:", err)
		os.Exit(1)
	}
	if *fprint {
		fmt.Println(nl.Fingerprint())
		return
	}

	if *doSimp {
		before := nl.Stats()
		res := netlistre.Simplify(nl)
		nl = res.Netlist
		after := nl.Stats()
		fmt.Printf("simplification: %d -> %d combinational elements (%.0f%% reduction)\n\n",
			before.Gates, after.Gates, 100*(1-float64(after.Gates)/float64(before.Gates)))
	}

	opt := netlistre.Options{SkipModMatch: *skipQBF, KeepCandidates: *cands,
		Workers: *workers, Timeout: *timeout}
	var stages *netlistre.StageStore
	if *stCache > 0 {
		stages = netlistre.NewStageStore(*stCache)
		opt.StageStore = stages
	}
	if *trace {
		opt.Progress = func(ev netlistre.StageEvent) {
			if ev.Done {
				fmt.Fprintf(os.Stderr, "[%12v] done  %-10s (%v, %d produced, %s)\n",
					ev.Start+ev.Duration, ev.Stage, ev.Duration, ev.Modules, ev.Provenance)
			} else {
				fmt.Fprintf(os.Stderr, "[%12v] start %s\n", ev.Start, ev.Stage)
			}
		}
	}
	if *objective == "min" {
		opt.Overlap.Objective = netlistre.MinModules
	}
	opt.Overlap.Sliceable = !*basic

	if *partFlag != "" {
		if *emitRTL != "" {
			fmt.Fprintln(os.Stderr, "revan: -emit-rtl cannot be combined with -partition")
			os.Exit(1)
		}
		resets := strings.Split(*partFlag, ",")
		if *partFlag == "auto" {
			resets = netlistre.BigSoCResetNames()
		}
		summary, err := netlistre.PartitionByResets(nl, resets)
		if err != nil {
			fmt.Fprintln(os.Stderr, "revan:", err)
			os.Exit(1)
		}
		fmt.Printf("partitioned into %d cores (%d multi-owned gates, %d unowned)\n\n",
			len(summary.Cores), summary.MultiOwned, summary.Unowned)
		degraded := false
		for _, c := range summary.Cores {
			fmt.Printf("=== core %s (%d latches, %d elements) ===\n", c.Name, c.Latches, c.Elements)
			degraded = analyzeOne(c.Netlist, opt, *target, *verbose, "", *jsonOut).Degraded || degraded
			fmt.Println()
		}
		printStageCacheStats(stages)
		if degraded {
			os.Exit(exitDegraded)
		}
		return
	}
	rep := analyzeOne(nl, opt, *target, *verbose, *dotFile, *jsonOut)
	printStageCacheStats(stages)
	if *emitRTL != "" {
		if err := decompileTo(nl, rep, *emitRTL); err != nil {
			fmt.Fprintln(os.Stderr, "revan:", err)
			os.Exit(exitRTLCheck)
		}
	}
	if rep.Degraded {
		os.Exit(exitDegraded)
	}
}

// decompileTo writes the word-level Verilog for an analyzed design and
// runs the round-trip equivalence self-check.
func decompileTo(nl *netlistre.Netlist, rep *netlistre.Report, path string) error {
	er, eq, err := netlistre.DecompileRTL(nl, rep)
	if er != nil {
		if werr := os.WriteFile(path, er.Verilog, 0o644); werr != nil {
			return werr
		}
	}
	if err != nil {
		return fmt.Errorf("decompile: %w", err)
	}
	st := er.Stats
	fmt.Printf("\ndecompiled RTL written to %s\n", path)
	fmt.Printf("  %d instances, %d always blocks, %d residual gates, %d residual latches, %d words\n",
		st.Instances, st.AlwaysBlocks, st.ResidualGates, st.ResidualLatches, st.Words)
	fmt.Printf("  self-check: %v\n", eq)
	if !eq.Equivalent {
		return fmt.Errorf("round-trip equivalence self-check failed: %v", eq)
	}
	return nil
}

// printStageCacheStats summarizes -stage-cache effectiveness on stderr so
// it never disturbs the report stream (text or JSON) on stdout.
func printStageCacheStats(stages *netlistre.StageStore) {
	if stages == nil {
		return
	}
	st := stages.Stats()
	fmt.Fprintf(os.Stderr, "stage cache: %d hits, %d misses, %d evictions, %d entries\n",
		st.Hits, st.Misses, st.Evictions, st.Entries)
}

// listArticles prints the article catalogue for -list.
func listArticles(w io.Writer) {
	for _, a := range netlistre.Articles() {
		fmt.Fprintf(w, "%-8s  %s\n", a.Name, a.Description)
	}
}

func loadNetlist(inFile, article string, blifLuts bool) (*netlistre.Netlist, error) {
	switch {
	case inFile != "":
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(inFile, ".blif") {
			return netlistre.ReadBLIFOpts(f, netlistre.BLIFOptions{Luts: blifLuts})
		}
		return netlistre.ReadVerilog(f)
	case article != "":
		return netlistre.TestArticle(article)
	}
	return nil, fmt.Errorf("one of -in or -article is required (try -list)")
}

// analyzeOne analyzes one netlist, prints its report, and returns the
// report for further processing (degraded-exit, -emit-rtl).
func analyzeOne(nl *netlistre.Netlist, opt netlistre.Options, target float64, verbose bool, dotFile string, jsonOut bool) *netlistre.Report {
	if opt.Overlap.Objective == netlistre.MinModules {
		opt.Overlap.CoverageTarget = netlistre.CoverageTargetElements(nl, target)
	}
	rep := netlistre.Analyze(nl, opt)
	var err error
	if jsonOut {
		err = netlistre.WriteJSONReport(os.Stdout, rep)
	} else {
		err = netlistre.WriteReport(os.Stdout, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "revan:", err)
		os.Exit(1)
	}
	if verbose {
		fmt.Println("\nall resolved modules:")
		for _, m := range rep.Resolved {
			fmt.Printf("  %-28s %5d elements\n", m.Name, m.Size())
		}
	}
	if dotFile != "" {
		f, err := os.Create(dotFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "revan:", err)
			os.Exit(1)
		}
		if err := netlistre.WriteAbstractDOT(f, nl, rep.Resolved); err != nil {
			fmt.Fprintln(os.Stderr, "revan:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nabstracted netlist written to %s\n", dotFile)
	}
	if len(rep.Candidates) > 0 {
		fmt.Printf("\ncandidate modules for manual analysis (Section II-B.1): %d\n", len(rep.Candidates))
		for _, m := range rep.Candidates {
			fmt.Printf("  %-28s %5d elements  fn=%s\n", m.Name, m.Size(), m.Attr["function"])
		}
	}
	return rep
}
