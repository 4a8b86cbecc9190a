package main

// The differential gate (-diff): every golden/suspect trojan article pair
// — gate-level and LUT-mapped — is pushed through the structural diff
// matcher, which must recover the injected trojan gate set EXACTLY: the
// suspect-side added set equals the labeled trojan set, with no removed
// and no retyped nodes (the trojan articles splice logic in; they do not
// delete or rewire existing gates). The self-diff of each golden netlist
// must be empty. For context the gate also reports how the analysis-based
// trojan oracle scores against the same label, but only the diff is gated
// — the oracle is a heuristic, the diff is exact.

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/oracle"
)

func runDiff(articleCSV string) error {
	pairs := gen.TrojanArticlePairs()
	if articleCSV != "" {
		want := make(map[string]bool)
		for _, n := range strings.Split(articleCSV, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var kept [][2]string
		for _, p := range pairs {
			if want[p[0]] || want[p[1]] {
				kept = append(kept, p)
			}
		}
		pairs = kept
	}
	if len(pairs) == 0 {
		return fmt.Errorf("-articles matched no trojan pair")
	}

	var failures []string
	fail := func(format string, args ...interface{}) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}

	for _, pair := range pairs {
		goldenName, suspectName := pair[0], pair[1]
		golden, _, err := gen.LabeledArticle(goldenName)
		if err != nil {
			return err
		}
		suspect, lab, err := gen.LabeledArticle(suspectName)
		if err != nil {
			return err
		}

		// Self-diff: a netlist against itself must be identical.
		if self := netlist.DiffNetlists(golden, golden); !self.Identical() {
			fail("%s: self-diff not identical: +%d -%d ~%d",
				goldenName, len(self.Added), len(self.Removed), len(self.Retyped))
		}

		d := netlist.DiffNetlists(golden, suspect)
		want := append([]netlist.ID(nil), lab.Trojan...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		exact := slices.Equal(d.Added, want)
		if !exact {
			fail("%s vs %s: diff added %d nodes, want the %d labeled trojan nodes (missed %d, extra %d)",
				goldenName, suspectName, len(d.Added), len(want),
				len(idSliceSub(want, d.Added)), len(idSliceSub(d.Added, want)))
		}
		if len(d.Removed) > 0 || len(d.Retyped) > 0 {
			fail("%s vs %s: diff reported %d removed and %d retyped nodes; the trojan only adds logic",
				goldenName, suspectName, len(d.Removed), len(d.Retyped))
		}

		// Context line: how the analysis-based oracle does on the same label.
		res := oracle.Score(analyze(suspect, 1), lab, oracle.Options{})
		line := fmt.Sprintf("%-18s diff: added=%d matched=%d passes=%d exact=%t",
			suspectName, len(d.Added), d.Matched, d.Passes, exact)
		if res.Trojan != nil {
			line += fmt.Sprintf("  (oracle trojanF1=%.2f)", res.Trojan.F1)
		}
		fmt.Println(line)
	}

	if len(failures) > 0 {
		sort.Strings(failures)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		return fmt.Errorf("%d differential failure(s)", len(failures))
	}
	fmt.Println("differential OK")
	return nil
}

// idSliceSub returns the elements of a not present in b (both sorted).
func idSliceSub(a, b []netlist.ID) []netlist.ID {
	in := make(map[netlist.ID]bool, len(b))
	for _, id := range b {
		in[id] = true
	}
	var out []netlist.ID
	for _, id := range a {
		if !in[id] {
			out = append(out, id)
		}
	}
	return out
}
