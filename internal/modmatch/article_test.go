package modmatch_test

// Article-level tests. They need the words core's analysis identifies,
// and core imports modmatch, hence the external test package.

import (
	"context"
	"reflect"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/modmatch"
	"netlistre/internal/netlist"
	"netlistre/internal/words"
)

// articleWords returns a labeled article's netlist and the words the
// modmatch stage receives for it.
func articleWords(tb testing.TB, name string) (*netlist.Netlist, []words.Word) {
	tb.Helper()
	nl, _, err := gen.LabeledArticle(name)
	if err != nil {
		tb.Fatal(err)
	}
	return nl, core.Analyze(nl, core.Options{Workers: 1, SkipModMatch: true}).Words
}

// TestArticleDifferential: on every labeled article, matching with the
// simulation refuter must return exactly the modules of the oracle run
// without it.
func TestArticleDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes all 18 labeled articles")
	}
	matched := 0
	for _, name := range gen.LabeledArticleNames() {
		nl, ws := articleWords(t, name)
		opt := modmatch.Options{Workers: 1}
		on := modmatch.Match(context.Background(), nl, ws, opt)
		off := modmatch.Match(context.Background(), nl, ws, modmatch.WithoutPrefilter(opt))
		if !reflect.DeepEqual(on, off) {
			t.Errorf("%s: %d modules with the refuter, %d without, or they differ", name, len(on), len(off))
		}
		matched += len(on)
	}
	if matched == 0 {
		t.Fatal("no article matched any module")
	}
}
