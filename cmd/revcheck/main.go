// Command revcheck runs the ground-truth conformance harness: every
// labeled article is analyzed at several worker counts, scored against the
// generator's ground truth, pushed through the metamorphic mutations, and
// summarized in a deterministic scorecard (BENCH_conformance.json). The
// exit status is the gate: nonzero when worker counts disagree, a mutation
// invariant breaks, an article's macro F1 falls below -min-macro, or any
// score regresses below the recorded baseline.
//
// Usage:
//
//	revcheck                       # full matrix, compare against baseline
//	revcheck -articles usb,evoter  # subset
//	revcheck -mutations none       # skip mutations
//	revcheck -bless                # rewrite the baseline from this run
//	revcheck -decompile            # RTL decompile gate instead (see below)
//	revcheck -diff                 # differential trojan-recovery gate
//
// With -diff the harness switches to the differential gate: every
// golden/suspect trojan article pair (gate-level and LUT-mapped) is
// compared with the structural diff matcher, which must recover the
// injected trojan gate set exactly — added nodes equal to the labeled
// trojan set, nothing removed or retyped — and each golden netlist must
// self-diff as identical.
//
// With -decompile the harness switches to the decompilation gate: every
// labeled article is lowered to word-level Verilog at each worker count,
// the emissions must be byte-identical across counts, the round-trip
// equivalence self-check must pass, and the per-article residual gate and
// latch counts are gated against testdata/decompile_baseline.json (a
// template regression surfaces as residual counts growing). -bless,
// -articles, and -workers apply to this mode too.
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/oracle"
	"netlistre/internal/oracle/mutate"
)

func main() {
	var (
		articles  = flag.String("articles", "", "comma-separated articles (default: all labeled)")
		mutations = flag.String("mutations", "", "comma-separated mutations, or 'none' (default: all)")
		workers   = flag.String("workers", "1,4", "comma-separated worker counts to cross-check")
		out       = flag.String("out", "BENCH_conformance.json", "scorecard output path ('' to skip)")
		baseline  = flag.String("baseline", "testdata/conformance_baseline.json",
			"baseline scorecard to gate against ('' to skip)")
		bless    = flag.Bool("bless", false, "rewrite -baseline from this run instead of gating")
		eps      = flag.Float64("eps", 1e-6, "score tolerance for the baseline gate")
		minMacro = flag.Float64("min-macro", 0.9, "minimum per-article macro F1")
		seed     = flag.Int64("seed", 11, "mutation seed")

		diffGate     = flag.Bool("diff", false, "run the differential trojan-recovery gate instead of the conformance matrix")
		decompile    = flag.Bool("decompile", false, "run the RTL decompilation gate instead of the conformance matrix")
		decompileOut = flag.String("decompile-out", "BENCH_decompile.json", "decompile scorecard output path ('' to skip)")
		decompileBas = flag.String("decompile-baseline", "testdata/decompile_baseline.json",
			"decompile baseline to gate residual counts against ('' to skip)")
	)
	flag.Parse()
	if *diffGate {
		if err := runDiff(*articles); err != nil {
			fmt.Fprintln(os.Stderr, "revcheck:", err)
			os.Exit(1)
		}
		return
	}
	if *decompile {
		if err := runDecompile(*articles, *workers, *decompileOut, *decompileBas, *bless); err != nil {
			fmt.Fprintln(os.Stderr, "revcheck:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*articles, *mutations, *workers, *out, *baseline, *bless, *eps, *minMacro, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "revcheck:", err)
		os.Exit(1)
	}
}

func run(articleCSV, mutationCSV, workerCSV, out, baseline string, bless bool,
	eps, minMacro float64, seed int64) error {
	names := gen.LabeledArticleNames()
	if articleCSV != "" {
		names = strings.Split(articleCSV, ",")
	}
	var muts []mutate.Mutation
	switch mutationCSV {
	case "none":
	case "":
		muts = mutate.All()
	default:
		for _, name := range strings.Split(mutationCSV, ",") {
			m, err := mutate.Named(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			muts = append(muts, m)
		}
	}
	workerCounts, err := parseWorkers(workerCSV)
	if err != nil {
		return err
	}

	var failures []string
	fail := func(format string, args ...interface{}) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	var results []*oracle.Result

	for _, name := range names {
		nl, lab, err := gen.LabeledArticle(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		var first *oracle.Result
		for i, w := range workerCounts {
			res := oracle.Score(analyze(nl, w), lab, oracle.Options{})
			if i == 0 {
				first = res
				continue
			}
			if !reflect.DeepEqual(res, first) {
				fail("%s: scorecard at workers=%d differs from workers=%d",
					lab.Design, w, workerCounts[0])
			}
		}
		results = append(results, first)
		if first.MacroF1 < minMacro {
			fail("%s: macro F1 %.4f below -min-macro %.4f", lab.Design, first.MacroF1, minMacro)
		}

		mutOK := 0
		for _, mutation := range muts {
			if err := checkMutation(nl, lab, first, mutation, seed, workerCounts[0]); err != nil {
				fail("%s/%s: %v", lab.Design, mutation.Name, err)
			} else {
				mutOK++
			}
		}
		line := fmt.Sprintf("%-14s macroF1=%.4f words=%.2f", lab.Design, first.MacroF1, first.Words.Recall)
		if first.Trojan != nil {
			line += fmt.Sprintf(" trojanF1=%.2f", first.Trojan.F1)
		}
		if len(muts) > 0 {
			line += fmt.Sprintf(" mutations=%d/%d", mutOK, len(muts))
		}
		fmt.Println(line)
	}

	if out != "" {
		if err := writeResults(out, results); err != nil {
			return err
		}
		fmt.Println("wrote", out)
	}
	if baseline != "" && bless {
		if err := writeResults(baseline, results); err != nil {
			return err
		}
		fmt.Println("blessed", baseline)
	} else if baseline != "" {
		base, err := readBaseline(baseline)
		if err != nil {
			return err
		}
		if base == nil {
			fmt.Printf("no baseline at %s (run revcheck -bless to record one)\n", baseline)
		} else {
			for _, reg := range oracle.CompareBaseline(results, filterBaseline(base, names), eps) {
				fail("baseline: %s", reg)
			}
		}
	}

	if len(failures) > 0 {
		sort.Strings(failures)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		return fmt.Errorf("%d conformance failure(s)", len(failures))
	}
	fmt.Println("conformance OK")
	return nil
}

func parseWorkers(workerCSV string) ([]int, error) {
	var workerCounts []int
	for _, f := range strings.Split(workerCSV, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -workers value %q", f)
		}
		workerCounts = append(workerCounts, w)
	}
	if len(workerCounts) == 0 {
		return nil, fmt.Errorf("-workers must name at least one count")
	}
	return workerCounts, nil
}

func analyze(nl *netlist.Netlist, workerCount int) *core.Report {
	opt := core.Options{Workers: workerCount}
	opt.Overlap.Sliceable = true
	return core.Analyze(nl, opt)
}

// checkMutation applies one mutation, scores the mutant and its reference,
// and checks the mutant's declared invariants.
func checkMutation(nl *netlist.Netlist, lab *gen.Labels, parentRes *oracle.Result,
	mutation mutate.Mutation, seed int64, workerCount int) error {
	mut, err := mutation.Apply(nl, lab, seed)
	if err != nil {
		return err
	}
	refNL, refRes := mut.RefNetlist, parentRes
	if refNL == nil {
		refNL = nl
	} else {
		refRes = oracle.Score(analyze(refNL, workerCount), mut.RefLabels, oracle.Options{})
	}
	mutRes := oracle.Score(analyze(mut.Netlist, workerCount), mut.Labels, oracle.Options{})
	return mut.Check(refNL, mutRes, refRes)
}

func writeResults(path string, results []*oracle.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := oracle.WriteResults(f, results); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readBaseline returns nil without error when the baseline file does not
// exist yet, so a fresh checkout can run revcheck before blessing one.
func readBaseline(path string) ([]*oracle.Result, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return oracle.ReadResults(f)
}

// filterBaseline keeps only the baseline entries for the articles this run
// scored, so -articles subsets do not trip "missing from results".
func filterBaseline(base []*oracle.Result, names []string) []*oracle.Result {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[strings.TrimSpace(n)] = true
	}
	var out []*oracle.Result
	for _, b := range base {
		if want[b.Design] {
			out = append(out, b)
		}
	}
	return out
}
