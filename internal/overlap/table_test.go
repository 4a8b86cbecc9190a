package overlap_test

// Pinned traversal table: the sliceable MaxCoverage resolution of every
// labeled article's merged module set must reproduce the recorded
// branch-and-bound node count, optimality flag, coverage and a digest of
// the selected modules. A node-limited search returns whatever incumbent
// it held when it stopped, so any change to the search tree — the
// branching order, the bound's value, the propagation order — moves at
// least one row.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/ilp"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/overlap"
	"netlistre/internal/simplify"
)

// overlapInput is the merged, unresolved module set of a design, the
// input the overlap stage resolves, with the design's number of gates and
// latches.
type overlapInput struct {
	mods     []*module.Module
	elements int
}

// inputs memoizes overlapInputs by design name: Resolve does not modify
// its input, and each analysis costs far more than a resolution.
var inputs = map[string]overlapInput{}

// articleModules returns the overlap input of a labeled article, or of
// "bigsoc": the simplified BigSoC with noise seed 1, the benchmark's
// first SoC input.
func articleModules(tb testing.TB, name string) ([]*module.Module, int) {
	tb.Helper()
	if in, ok := inputs[name]; ok {
		return in.mods, in.elements
	}
	var nl *netlist.Netlist
	opt := core.Options{Workers: 1}
	if name == "bigsoc" {
		nl = simplify.Run(gen.SoC("bigsoc", gen.BigSoCCoreNames(), 1, 0.22)).Netlist
		opt.Workers = 0
	} else {
		var err error
		if nl, _, err = gen.LabeledArticle(name); err != nil {
			tb.Fatal(err)
		}
	}
	opt.Overlap.Sliceable = true
	st := nl.Stats()
	in := overlapInput{core.Analyze(nl, opt).All, st.Gates + st.Latches}
	inputs[name] = in
	return in.mods, in.elements
}

// selectionDigest hashes the selected modules in order: each name and
// element list.
func selectionDigest(sel []*module.Module) string {
	h := sha256.New()
	var buf [8]byte
	for _, m := range sel {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(m.Name)))
		h.Write(buf[:])
		h.Write([]byte(m.Name))
		binary.LittleEndian.PutUint64(buf[:], uint64(len(m.Elements)))
		h.Write(buf[:])
		for _, g := range m.Elements {
			binary.LittleEndian.PutUint64(buf[:], uint64(g))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPinnedTraversalTable(t *testing.T) {
	// prior is the coverage of a row whose selection changed when the
	// Lagrangian element bound joined the clique bound (0 when the digest
	// did not change). A tighter valid bound prunes only subtrees holding
	// nothing strictly better than the incumbent, so a changed selection
	// must cover strictly more.
	rows := []struct {
		article  string
		nodes    int64
		optimal  bool
		coverage int
		digest   string
		prior    int
	}{
		{"mips16", 120, true, 1723, "447873ca5be4162716934599a85fab06c439f8ed614a7073aa6cc73cb4df5a6a", 0},
		{"riscfpu", 1326, true, 6556, "96b8a50e156121bdeb8c255d1c6f31ae692c6ddb21afaa542c2d790efe5061c8", 6553},
		{"router", 1237, true, 2274, "b9990be1617ece0fa2eadb3243c57cf4b914988f561291ae489a0e0c6eb21df5", 2270},
		{"oc8051", 173, true, 1372, "ab6589340c4a6f464b8edee305ce8b1c5261e9ef63b882e6caa8efd408839936", 0},
		{"aemb", 129, true, 556, "b0ee08bde9eefcf269aa059d62e6d986ed86545ffd1d7de5a59a8b1eeda04f2d", 0},
		{"msp430", 11, true, 559, "e96ef6a0d2568f06fdbec156b8f0020d2366590375591c1c841e2025fe89d172", 0},
		{"usb", 64, true, 435, "cdb1757e8eb91a2f657a463dac6408631969b849d361a9a67faed5d21db2bb57", 0},
		{"evoter", 71, true, 281, "e037a6bb82ec9bcad36076676a38e472f4c30b078f497af071caf28e4bd6b5d3", 0},
		{"oc8051-trojan", 161, true, 1397, "a45cbccc0e316263c849539c1454fa379cd5f199a0e5acf63306c7967be06a21", 0},
		{"evoter-trojan", 152, true, 385, "5245c75444cc06015217ffc0fd83c62aeede473f1a086da319b56748de5822c9", 0},
		{"mips16-lut", 120, true, 1745, "a3fc6600fde3c81f9ca4917f1e01a155f22d17cfe9ffd65b2eba3bf57ee1d23a", 0},
		{"riscfpu-lut", 1168, true, 6556, "96b8a50e156121bdeb8c255d1c6f31ae692c6ddb21afaa542c2d790efe5061c8", 0},
		{"router-lut", 1229, true, 2274, "5167486716d8759a07df6227b13e3b5204372767d32e5f76d16a67fa24055627", 2270},
		{"oc8051-lut", 170, true, 1407, "f6d1acbffef65af66e0deee2033ac82a5dcd0a6f6d78dc376aaf288a81b176c8", 0},
		{"aemb-lut", 81, true, 559, "6997d91af2cf57950914aa25c3201343308008463f63e75865419aa04c765b1d", 0},
		{"msp430-lut", 11, true, 584, "2abc6cc5adf33ca6a7d9f4d6c2b072d8d00dbbf4801e2e5c6447b072a9d04c8b", 0},
		{"usb-lut", 64, true, 435, "cdb1757e8eb91a2f657a463dac6408631969b849d361a9a67faed5d21db2bb57", 0},
		{"evoter-lut", 76, true, 293, "a0b624664ae2a2104bb714fa4c384b9570b1da901684d1a03252812a4e165959", 0},
	}
	for _, row := range rows {
		row := row
		t.Run(row.article, func(t *testing.T) {
			mods, _ := articleModules(t, row.article)
			res, err := overlap.Resolve(mods, overlap.Options{Sliceable: true})
			if err != nil {
				t.Fatal(err)
			}
			got := selectionDigest(res.Selected)
			if res.Nodes != row.nodes || res.Optimal != row.optimal || res.Coverage != row.coverage || got != row.digest {
				t.Errorf("%s: got nodes %d, optimal %v, coverage %d, digest %s; want %d, %v, %d, %s",
					row.article, res.Nodes, res.Optimal, res.Coverage, got,
					row.nodes, row.optimal, row.coverage, row.digest)
			}
			if row.prior != 0 && res.Coverage <= row.prior {
				t.Errorf("%s: changed selection covers %d, not more than the prior %d", row.article, res.Coverage, row.prior)
			}
		})
	}
}

// TestPinnedMinModulesTable pins the sliceable MinModules resolution of
// three articles at a coverage target of half their gates and latches. All
// three stop at the default node limit, so each row pins the incumbent the
// search held there: any change to the search tree moves it.
func TestPinnedMinModulesTable(t *testing.T) {
	rows := []struct {
		article  string
		nodes    int64
		optimal  bool
		modules  int
		coverage int
		digest   string
	}{
		{"mips16", 200000, false, 12, 980, "163a859e8f4e7a863972084cd3bd59a2d64c1382c0c36a2b32dfd7c635d1b100"},
		{"aemb", 200000, false, 12, 416, "357ed8d40035454e1ffa6e86ca6ccf27a2d08309c4d2bbc1253d8fd09d9adc73"},
		{"oc8051", 200000, false, 35, 1147, "80bdf5637602adaf48c9601c0b3d1d38f908118cebed42b18716810ba5d474b5"},
	}
	for _, row := range rows {
		row := row
		t.Run(row.article, func(t *testing.T) {
			mods, elements := articleModules(t, row.article)
			res, err := overlap.Resolve(mods, overlap.Options{
				Objective: overlap.MinModules, CoverageTarget: elements / 2, Sliceable: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := selectionDigest(res.Selected)
			if res.Nodes != row.nodes || res.Optimal != row.optimal || len(res.Selected) != row.modules || res.Coverage != row.coverage || got != row.digest {
				t.Errorf("%s: got nodes %d, optimal %v, modules %d, coverage %d, digest %s; want %d, %v, %d, %d, %s",
					row.article, res.Nodes, res.Optimal, len(res.Selected), res.Coverage, got,
					row.nodes, row.optimal, row.modules, row.coverage, row.digest)
			}
		})
	}
}

// TestMinModulesStoppedNotInfeasible resolves msp430 under MinModules at
// half its gates and latches. The basic formulation finds a selection
// reaching the target, and a sliceable selection may take whole modules,
// so the target is feasible in both; the sliceable search stops at its
// node limit without one, and must say so rather than report the target
// infeasible, with the nodes it spent in its result and its error text.
func TestMinModulesStoppedNotInfeasible(t *testing.T) {
	mods, elements := articleModules(t, "msp430")
	opt := overlap.Options{Objective: overlap.MinModules, CoverageTarget: elements / 2}
	if res, err := overlap.Resolve(mods, opt); err != nil || res.Coverage < opt.CoverageTarget {
		t.Fatalf("basic: err %v, coverage %d; want a selection covering %d", err, res.Coverage, opt.CoverageTarget)
	}
	opt.Sliceable = true
	res, err := overlap.Resolve(mods, opt)
	if errors.Is(err, ilp.ErrInfeasible) {
		t.Errorf("sliceable: %v, but the target is feasible", err)
	}
	if !errors.Is(err, ilp.ErrStopped) || res.Nodes < 200_000 {
		t.Fatalf("sliceable: err %v after %d nodes; want ilp.ErrStopped at the 200,000-node limit", err, res.Nodes)
	}
	if want := fmt.Sprintf("after %d nodes", res.Nodes); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not carry %q", err, want)
	}
}

// TestResolveMatchesComponentOracle checks that one ILP over every module
// selects what solving each overlap-connected component on its own does
// (ResolveByComponent), with the same coverage and optimality, on every
// labeled article and the simplified BigSoC, in both formulations. Only
// the order of the selection may differ.
func TestResolveMatchesComponentOracle(t *testing.T) {
	names := append(gen.LabeledArticleNames(), "bigsoc")
	for _, name := range names {
		for _, sliceable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sliceable=%v", name, sliceable), func(t *testing.T) {
				mods, _ := articleModules(t, name)
				opt := overlap.Options{Sliceable: sliceable}
				got, err := overlap.Resolve(mods, opt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := overlap.ResolveByComponent(mods, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got.Coverage != want.Coverage || got.Optimal != want.Optimal {
					t.Errorf("coverage %d, optimal %v; oracle %d, %v", got.Coverage, got.Optimal, want.Coverage, want.Optimal)
				}
				if g, w := selectionSet(got.Selected), selectionSet(want.Selected); !slices.Equal(g, w) {
					t.Errorf("selected %d modules, oracle %d; first difference %q",
						len(g), len(w), firstDifference(g, w))
				}
			})
		}
	}
}

// selectionSet renders each selected module as its name and element list,
// sorted.
func selectionSet(sel []*module.Module) []string {
	out := make([]string, len(sel))
	for i, m := range sel {
		out[i] = fmt.Sprint(m.Name, m.Elements)
	}
	slices.Sort(out)
	return out
}

func firstDifference(a, b []string) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return a[i] + " vs " + b[i]
		}
	}
	return "length"
}
