package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"netlistre/internal/gen"
	"netlistre/internal/rtl"
)

// decompileRow is one article's entry in the decompile scorecard. The
// residual counts are the gate: a template regression shows up as gates
// that used to lower into instances or always blocks falling back to
// structural passthrough, which the baseline comparison rejects.
type decompileRow struct {
	Design          string `json:"design"`
	Method          string `json:"method"`
	Equivalent      bool   `json:"equivalent"`
	Instances       int    `json:"instances"`
	AlwaysBlocks    int    `json:"always_blocks"`
	ResidualGates   int    `json:"residual_gates"`
	ResidualLatches int    `json:"residual_latches"`
	CoveredElements int    `json:"covered_elements"`
	Words           int    `json:"words"`
}

// runDecompile is the -decompile mode: every labeled article is lowered to
// word-level Verilog at each worker count, the emissions are required to be
// byte-identical, the round-trip equivalence check must pass, each
// LUT-mapped article must lower its sequential blocks like its gate-level
// twin, and the per-article residual counts are gated against the
// recorded baseline.
func runDecompile(articleCSV, workerCSV, out, baseline string, bless bool) error {
	names := gen.LabeledArticleNames()
	if articleCSV != "" {
		names = strings.Split(articleCSV, ",")
	}
	workerCounts, err := parseWorkers(workerCSV)
	if err != nil {
		return err
	}

	var failures []string
	fail := func(format string, args ...interface{}) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	var rows []decompileRow

	for _, name := range names {
		nl, lab, err := gen.LabeledArticle(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		var first *rtl.EmitResult
		for i, w := range workerCounts {
			er, err := rtl.Emit(nl, analyze(nl, w))
			if err != nil {
				fail("%s: emit at workers=%d: %v", lab.Design, w, err)
				break
			}
			if i == 0 {
				first = er
				continue
			}
			if !bytes.Equal(er.Verilog, first.Verilog) {
				fail("%s: emitted RTL at workers=%d differs from workers=%d",
					lab.Design, w, workerCounts[0])
			}
		}
		if first == nil {
			continue
		}
		eq, err := rtl.Check(nl, first)
		if err != nil {
			fail("%s: equivalence check: %v", lab.Design, err)
			continue
		}
		if !eq.Equivalent {
			fail("%s: round-trip equivalence failed: %v", lab.Design, eq)
		}
		st := first.Stats
		rows = append(rows, decompileRow{
			Design:          lab.Design,
			Method:          eq.Method,
			Equivalent:      eq.Equivalent,
			Instances:       st.Instances,
			AlwaysBlocks:    st.AlwaysBlocks,
			ResidualGates:   st.ResidualGates,
			ResidualLatches: st.ResidualLatches,
			CoveredElements: st.CoveredElements,
			Words:           st.Words,
		})
		fmt.Printf("%-14s %v  instances=%d always=%d residual=%d+%dL words=%d\n",
			lab.Design, eq, st.Instances, st.AlwaysBlocks,
			st.ResidualGates, st.ResidualLatches, st.Words)
	}

	for _, twin := range compareTwins(rows) {
		fail("twin: %s", twin)
	}
	if out != "" {
		if err := writeDecompileRows(out, rows); err != nil {
			return err
		}
		fmt.Println("wrote", out)
	}
	if baseline != "" && bless {
		if err := writeDecompileRows(baseline, rows); err != nil {
			return err
		}
		fmt.Println("blessed", baseline)
	} else if baseline != "" {
		base, err := readDecompileBaseline(baseline)
		if err != nil {
			return err
		}
		if base == nil {
			fmt.Printf("no baseline at %s (run revcheck -decompile -bless to record one)\n", baseline)
		} else {
			for _, reg := range compareDecompile(rows, base) {
				fail("baseline: %s", reg)
			}
		}
	}

	if len(failures) > 0 {
		sort.Strings(failures)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		return fmt.Errorf("%d decompile failure(s)", len(failures))
	}
	fmt.Println("decompile OK")
	return nil
}

// compareDecompile gates this run's rows against the baseline: residual
// counts must not grow (coverage regression), and an article present in
// the baseline must not vanish or lose equivalence.
func compareDecompile(rows, base []decompileRow) []string {
	byDesign := make(map[string]decompileRow, len(rows))
	for _, r := range rows {
		byDesign[r.Design] = r
	}
	var regs []string
	for _, b := range base {
		r, ok := byDesign[b.Design]
		if !ok {
			continue // -articles subset
		}
		if !r.Equivalent && b.Equivalent {
			regs = append(regs, fmt.Sprintf("%s: equivalence regressed", b.Design))
		}
		if r.ResidualGates > b.ResidualGates {
			regs = append(regs, fmt.Sprintf("%s: residual gates %d > baseline %d",
				b.Design, r.ResidualGates, b.ResidualGates))
		}
		if r.ResidualLatches > b.ResidualLatches {
			regs = append(regs, fmt.Sprintf("%s: residual latches %d > baseline %d",
				b.Design, r.ResidualLatches, b.ResidualLatches))
		}
	}
	return regs
}

// compareTwins requires each LUT-mapped article to lower as many
// always-blocks, and keep as many residual latches, as its gate-level twin:
// sequential blocks are lowered from their function, which the mapping
// does not change. A twin outside an -articles subset is not compared.
func compareTwins(rows []decompileRow) []string {
	byDesign := make(map[string]decompileRow, len(rows))
	for _, r := range rows {
		byDesign[r.Design] = r
	}
	var regs []string
	for _, r := range rows {
		base, isLut := strings.CutSuffix(r.Design, "_lut")
		g, ok := byDesign[base]
		if !isLut || !ok {
			continue
		}
		if r.AlwaysBlocks != g.AlwaysBlocks || r.ResidualLatches != g.ResidualLatches {
			regs = append(regs, fmt.Sprintf("%s: always blocks %d, residual latches %d; gate-level %s: %d, %d",
				r.Design, r.AlwaysBlocks, r.ResidualLatches, g.Design, g.AlwaysBlocks, g.ResidualLatches))
		}
	}
	return regs
}

func writeDecompileRows(path string, rows []decompileRow) error {
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readDecompileBaseline returns nil without error when the baseline file
// does not exist yet, matching the conformance baseline's behaviour.
func readDecompileBaseline(path string) ([]decompileRow, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var rows []decompileRow
	if err := json.Unmarshal(b, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}
