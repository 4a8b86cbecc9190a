package mutate

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/oracle"
)

func analyze(nl *netlist.Netlist) *core.Report {
	opt := core.Options{}
	opt.Overlap.Sliceable = true
	return core.Analyze(nl, opt)
}

// checkMutant verifies a mutant's declared invariants against its
// reference: fingerprint relation and scorecard equality.
func checkMutant(t *testing.T, name string, parent *netlist.Netlist, parentLab *gen.Labels, mut *Mutant) {
	t.Helper()
	refNL, refLab := mut.RefNetlist, mut.RefLabels
	if refNL == nil {
		refNL, refLab = parent, parentLab
	}
	mutFP, refFP := mut.Netlist.Fingerprint(), refNL.Fingerprint()
	if mut.SameFingerprint && mutFP != refFP {
		t.Errorf("%s: fingerprint changed (%s != %s)", name, mutFP[:12], refFP[:12])
	}
	if mut.ChangedFingerprint && mutFP == refFP {
		t.Errorf("%s: fingerprint did not change", name)
	}
	if err := mut.Netlist.Validate(); err != nil {
		t.Fatalf("%s: mutant netlist invalid: %v", name, err)
	}

	mutRes := oracle.Score(analyze(mut.Netlist), mut.Labels, oracle.Options{})
	refRes := oracle.Score(analyze(refNL), refLab, oracle.Options{})
	if mut.ExactScores {
		if !reflect.DeepEqual(mutRes, refRes) {
			t.Errorf("%s: scorecard diverged:\nmutant: %+v\nref:    %+v", name, mutRes, refRes)
		}
		return
	}
	got := []*oracle.Result{mutRes}
	ref := []*oracle.Result{refRes}
	for _, reg := range oracle.CompareBaseline(got, ref, mut.ScoreEps) {
		t.Errorf("%s: mutant below reference: %s", name, reg)
	}
	for _, reg := range oracle.CompareBaseline(ref, got, mut.ScoreEps) {
		t.Errorf("%s: mutant above reference: %s", name, reg)
	}
}

// TestMutationsOnArticles runs every mutation over a plain and a trojaned
// article and checks the declared invariants end to end. revcheck extends
// the same checks to the full article set.
func TestMutationsOnArticles(t *testing.T) {
	if testing.Short() {
		t.Skip("analysis-heavy")
	}
	for _, article := range []string{"evoter", "oc8051-trojan"} {
		nl, lab, err := gen.LabeledArticle(article)
		if err != nil {
			t.Fatal(err)
		}
		for _, mutation := range All() {
			t.Run(article+"/"+mutation.Name, func(t *testing.T) {
				mut, err := mutation.Apply(nl, lab, 11)
				if err != nil {
					t.Fatal(err)
				}
				checkMutant(t, article+"/"+mutation.Name, nl, lab, mut)
			})
		}
	}
}

// TestReorderPermutes: the rebuild must actually move nodes around, keep
// the node count, and keep the fingerprint.
func TestReorderPermutes(t *testing.T) {
	nl, lab, err := gen.LabeledArticle("evoter")
	if err != nil {
		t.Fatal(err)
	}
	mut, err := applyReorder(nl, lab, 7)
	if err != nil {
		t.Fatal(err)
	}
	if mut.Netlist.Len() != nl.Len() {
		t.Fatalf("node count %d -> %d", nl.Len(), mut.Netlist.Len())
	}
	if mut.Netlist.Fingerprint() != nl.Fingerprint() {
		t.Error("reorder changed the fingerprint")
	}
	moved := 0
	for i := 0; i < nl.Len(); i++ {
		if nl.Node(netlist.ID(i)).Kind != mut.Netlist.Node(netlist.ID(i)).Kind {
			moved++
		}
	}
	if moved == 0 {
		t.Error("reorder left every node in place")
	}
	// Labels stay aligned: remapped members must have gate/latch kinds.
	for _, c := range mut.Labels.Components {
		for _, id := range c.Members {
			switch mut.Netlist.Node(id).Kind {
			case netlist.Input, netlist.Const0, netlist.Const1:
				t.Fatalf("component %s member %d is not a gate", c.Class, id)
			}
		}
	}
}

func TestNamedLookup(t *testing.T) {
	if _, err := Named("reorder"); err != nil {
		t.Fatal(err)
	}
	if _, err := Named("nope"); err == nil {
		t.Fatal("Named accepted unknown mutation")
	}
	seen := map[string]bool{}
	for _, m := range All() {
		if seen[m.Name] {
			t.Fatalf("duplicate mutation name %s", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestNoiseSimplifyLabelsHaveNoNil: a labeled node whose image structural
// simplification swept away has no image, so no remapped member, word bit,
// trojan or noise node of the mutant's or the reference's labels is Nil,
// on every labeled article at two noise seeds.
func TestNoiseSimplifyLabelsHaveNoNil(t *testing.T) {
	for _, article := range gen.LabeledArticleNames() {
		nl, lab, err := gen.LabeledArticle(article)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2} {
			mut, err := applyNoiseSimplify(nl, lab, seed)
			if err != nil {
				t.Fatal(err)
			}
			for side, l := range map[string]*gen.Labels{"labels": mut.Labels, "ref labels": mut.RefLabels} {
				where := fmt.Sprintf("%s seed %d %s", article, seed, side)
				sets := [][]netlist.ID{l.Trojan, l.Noise}
				for _, c := range l.Components {
					sets = append(sets, c.Members)
					for _, w := range c.Words {
						sets = append(sets, w)
					}
				}
				for _, ids := range sets {
					if slices.Contains(ids, netlist.Nil) {
						t.Errorf("%s: Nil among %v", where, ids)
						break
					}
				}
			}
		}
	}
}
