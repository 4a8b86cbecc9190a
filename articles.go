package netlistre

import (
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/oracle"
)

// This file exposes the synthetic test articles used by the paper-shaped
// experiments (Table 2). The real benchmarks are proprietary or require a
// commercial synthesis flow; these generators reproduce their structural
// mix — see DESIGN.md for the substitution rationale. With the case-study
// netlists of Sections V-C and V-D they form the article catalogue
// (Articles) that every front end reads.

// TestArticleNames lists the available synthetic test articles in Table 2
// order: mips16, riscfpu, router, oc8051, aemb, msp430, usb, evoter.
func TestArticleNames() []string { return gen.ArticleNames() }

// Article is one entry of the built-in article catalogue.
type Article struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// caseStudies are the catalogue's netlists beyond Table 2.
var caseStudies = []struct {
	Article
	build func() *Netlist
}{
	{Article{"bigsoc", "seven-core SoC case study (Section V-C)"}, BigSoC},
	{Article{"evoter-trojan", "eVoter with key-sequence backdoor"}, EVoterTrojaned},
	{Article{"oc8051-trojan", "oc8051 with XOR kill switch"}, OC8051Trojaned},
}

// Articles is the built-in article catalogue: every netlist the revan,
// gennet and revand front ends accept by name. It lists the Table 2
// articles in TestArticleNames order, then the case studies of Sections
// V-C and V-D (bigsoc, evoter-trojan, oc8051-trojan).
func Articles() []Article {
	var out []Article
	for _, name := range gen.ArticleNames() {
		out = append(out, Article{name, gen.ArticleDescriptions[name]})
	}
	for _, c := range caseStudies {
		out = append(out, c.Article)
	}
	return out
}

// TestArticle builds the named catalogue article (see Articles).
func TestArticle(name string) (*Netlist, error) {
	for _, c := range caseStudies {
		if c.Name == name {
			return c.build(), nil
		}
	}
	return gen.Article(name)
}

// TestArticleDescription returns the one-line description of a Table 2
// article (Articles describes the whole catalogue).
func TestArticleDescription(name string) string { return gen.ArticleDescriptions[name] }

// BigSoC builds the seven-core SoC case study of Section V-C: per-core
// reset inputs (rst_<core>), inter-core interconnect, and electrical
// buffering noise. Pair with Simplify and PartitionByResets.
func BigSoC() *Netlist { return gen.BigSoC() }

// BigSoCCoreNames lists BigSoC's constituent cores.
func BigSoCCoreNames() []string { return gen.BigSoCCoreNames() }

// BigSoCResetNames lists the per-core reset input names used for
// partitioning.
func BigSoCResetNames() []string {
	var names []string
	for _, c := range gen.BigSoCCoreNames() {
		names = append(names, "rst_"+c)
	}
	return names
}

// LutMap rewrites a gate-level netlist into its LUT-mapped FPGA-style
// equivalent: every combinational gate becomes a k-input truth-table cell
// (k <= MaxLutInputs), with wider gates decomposed into balanced trees of
// same-op chunks. The result is the workload an off-the-shelf technology
// mapper would hand the analysis; gennet -lutmap emits it.
func LutMap(nl *Netlist) *Netlist {
	mapped, _ := gen.LutMapped(nl)
	return mapped
}

// EVoterTrojaned builds the eVoter article with the key-sequence backdoor
// of Section V-D.
func EVoterTrojaned() *Netlist { return gen.EVoterTrojaned() }

// OC8051Trojaned builds the oc8051 article with the XOR kill switch of
// Section V-D.
func OC8051Trojaned() *Netlist { return gen.OC8051Trojaned() }

// AddElectricalNoise rebuilds nl with semantics-preserving buffers, delay
// chains and paired inverters on a random fraction of edges, emulating a
// raw physical netlist.
func AddElectricalNoise(nl *Netlist, seed int64, prob float64) *Netlist {
	return gen.AddElectricalNoise(nl, seed, prob)
}

// Labels is the ground-truth answer key recorded while a labeled article
// builds: which gates belong to which designed component, the port words,
// and the trojan suspect set. See ScoreReport.
type Labels = gen.Labels

// ConformanceOptions tunes the ground-truth matching thresholds; the zero
// value selects the calibrated defaults.
type ConformanceOptions = oracle.Options

// ConformanceResult is the per-design scorecard ScoreReport produces.
type ConformanceResult = oracle.Result

// LabeledTestArticleNames lists the articles LabeledTestArticle accepts:
// the Table 2 set plus the oc8051-trojan and evoter-trojan variants.
func LabeledTestArticleNames() []string { return gen.LabeledArticleNames() }

// LabeledTestArticle builds the named article together with its
// ground-truth labels, for conformance scoring against an analysis report.
func LabeledTestArticle(name string) (*Netlist, *Labels, error) {
	return gen.LabeledArticle(name)
}

// ScoreReport scores an analysis report against an article's ground-truth
// labels: per-class precision/recall/F1, word recovery, and (for trojaned
// articles) suspect-set accuracy. The revcheck command runs this over the
// whole article set and gates on the recorded baseline.
func ScoreReport(rep *Report, lab *Labels, opt ConformanceOptions) *ConformanceResult {
	return oracle.Score(rep, lab, opt)
}

// Nil is the invalid node ID.
const Nil = netlist.Nil

// VGACore builds a frame buffer with an OR-AND scan-plane read (the
// structure behind the paper's BigSoC VGA case study). The generic RAM
// analysis does not cover it; pair with FindFramebufferRead.
func VGACore(rows, cols int) (*Netlist, []ID) {
	nl, px := gen.VGACore(rows, cols)
	return nl, px
}
