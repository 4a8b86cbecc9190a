package support

// Differential tests for the bit-parallel class prefilter: Analyze with
// the prefilter on must return exactly the modules of the oracle run with
// it off, over every labeled generated design.

import (
	"fmt"
	"sort"
	"testing"

	"netlistre/internal/gen"
	"netlistre/internal/module"
)

func supportModuleKey(m *module.Module) string {
	attrs := make([]string, 0, len(m.Attr))
	for k, v := range m.Attr {
		attrs = append(attrs, k+"="+v)
	}
	sort.Strings(attrs)
	return fmt.Sprintf("%v %s %v %v %v", m.Type, m.Name, m.Elements, m.Ports, attrs)
}

func TestPrefilterDifferentialArticles(t *testing.T) {
	for _, name := range gen.LabeledArticleNames() {
		nl, _, err := gen.LabeledArticle(name)
		if err != nil {
			t.Fatalf("article %s: %v", name, err)
		}
		on := Analyze(nl, Options{Workers: 1})
		off := Analyze(nl, Options{Workers: 1, DisablePrefilter: true})
		if len(on) != len(off) {
			t.Errorf("%s: %d modules with prefilter, %d without", name, len(on), len(off))
			continue
		}
		for i := range on {
			if k1, k2 := supportModuleKey(on[i]), supportModuleKey(off[i]); k1 != k2 {
				t.Errorf("%s module %d: %q (prefilter) vs %q (oracle)", name, i, k1, k2)
			}
		}
	}
}

// TestPrefilterRefutesOnlyNil checks soundness at the class level: for
// every candidate class of every article, a refuted class must be one the
// full BDD verification rejects.
func TestPrefilterRefutesOnlyNil(t *testing.T) {
	for _, name := range gen.LabeledArticleNames() {
		nl, _, err := gen.LabeledArticle(name)
		if err != nil {
			t.Fatalf("article %s: %v", name, err)
		}
		for _, c := range Classes(nl) {
			if len(c.Support) > maxSupport || len(c.Outputs) < minOutputs {
				continue
			}
			if !simRefuteClass(nl, c) {
				continue
			}
			if m := verifyClass(nl, c, Options{DisablePrefilter: true}); m != nil {
				t.Errorf("%s: prefilter refuted a class that verifies as %s (outputs %v)",
					name, m.Name, c.Outputs)
			}
		}
	}
}
