package oracle

// Baseline persistence and comparison: revcheck records the seed scorecard
// as JSON, and CI fails any run whose scores regress below it. The gate is
// no-regression, not perfection — the recorded baseline honestly includes
// the seed portfolio's known misses (the riscfpu duplicate parity trees,
// and the AddSub adder's b port, which holds the carry-in in place of bit
// 0 of the xor-preprocessed operand word because the chain head's
// arguments are taken in ID order).

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteResults writes results as deterministic, indented JSON sorted by
// design name.
func WriteResults(w io.Writer, results []*Result) error {
	sorted := append([]*Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Design < sorted[j].Design })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sorted)
}

// ReadResults reads a scorecard written by WriteResults.
func ReadResults(r io.Reader) ([]*Result, error) {
	var results []*Result
	if err := json.NewDecoder(r).Decode(&results); err != nil {
		return nil, fmt.Errorf("oracle: reading scorecard: %w", err)
	}
	return results, nil
}

// CompareBaseline lists every way got regresses below base: a design
// missing from got, a per-class F1, word recall, trojan F1 or macro F1
// more than eps below the baseline value. Improvements and new designs
// pass silently; an empty slice means the gate holds.
func CompareBaseline(got, base []*Result, eps float64) []string {
	byDesign := make(map[string]*Result, len(got))
	for _, r := range got {
		byDesign[r.Design] = r
	}
	var regressions []string
	for _, b := range base {
		g, ok := byDesign[b.Design]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: missing from results", b.Design))
			continue
		}
		gotClass := make(map[string]ClassScore, len(g.Classes))
		for _, c := range g.Classes {
			gotClass[c.Class] = c
		}
		for _, bc := range b.Classes {
			gc, ok := gotClass[bc.Class]
			if !ok {
				// A class that disappears entirely is only a regression if
				// the baseline had truth components to find.
				if bc.Truth > 0 {
					regressions = append(regressions,
						fmt.Sprintf("%s/%s: class missing from results", b.Design, bc.Class))
				}
				continue
			}
			if gc.F1 < bc.F1-eps {
				regressions = append(regressions,
					fmt.Sprintf("%s/%s: F1 %.4f < baseline %.4f", b.Design, bc.Class, gc.F1, bc.F1))
			}
		}
		if g.Words.Recall < b.Words.Recall-eps {
			regressions = append(regressions,
				fmt.Sprintf("%s/words: recall %.4f < baseline %.4f", b.Design, g.Words.Recall, b.Words.Recall))
		}
		if b.Trojan != nil {
			if g.Trojan == nil {
				regressions = append(regressions, fmt.Sprintf("%s/trojan: score missing", b.Design))
			} else if g.Trojan.F1 < b.Trojan.F1-eps {
				regressions = append(regressions,
					fmt.Sprintf("%s/trojan: F1 %.4f < baseline %.4f", b.Design, g.Trojan.F1, b.Trojan.F1))
			}
		}
		if g.MacroF1 < b.MacroF1-eps {
			regressions = append(regressions,
				fmt.Sprintf("%s/macro: F1 %.4f < baseline %.4f", b.Design, g.MacroF1, b.MacroF1))
		}
	}
	return regressions
}
