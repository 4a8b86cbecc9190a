package words_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"netlistre/internal/bitslice"
	"netlistre/internal/core"
	"netlistre/internal/gen"
	"netlistre/internal/netlist"
	"netlistre/internal/words"
)

// findString renders a bitslice result in node order, then its unknown
// classes by key.
func findString(res *bitslice.Result, n int) string {
	var b strings.Builder
	for id := 0; id < n; id++ {
		for _, m := range res.ByRoot[netlist.ID(id)] {
			fmt.Fprintf(&b, "%d %v %v %v\n", m.Root, m.Class, m.Args, m.Cone)
		}
	}
	keys := make([]string, 0, len(res.UnknownClasses))
	for k := range res.UnknownClasses {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, m := range res.UnknownClasses[k] {
			fmt.Fprintf(&b, "%s %d %v %v\n", k, m.Root, m.Args, m.Cone)
		}
	}
	return b.String()
}

// TestConcurrentFindAndPropagate runs bitslice.Find and PropagateAll from
// several goroutines at once, each on its own design, and requires every
// result to equal a serial run's. Cut enumeration, the cone walks and the
// propagation checks keep their buffers per call or per worker; a buffer
// shared through a package variable shows here as a mismatch, and as a
// race under -race. The designs are small so the -short race run covers
// it.
func TestConcurrentFindAndPropagate(t *testing.T) {
	names := []string{"usb", "evoter", "evoter-trojan", "usb-lut", "evoter-lut"}
	type design struct {
		name        string
		find, props string
		run         func() (string, string)
	}
	var ds []design
	for _, name := range names {
		nl, _, err := gen.LabeledArticle(name)
		if err != nil {
			t.Fatal(err)
		}
		seeds := core.Analyze(nl, core.Options{Workers: 1, SkipWordProp: true}).Words
		run := func() (string, string) {
			find := findString(bitslice.Find(nl, bitslice.Options{KeepUnknown: true, Workers: 2}), nl.Len())
			all, props := words.PropagateAll(nl, seeds, 3, words.Options{})
			return find, propagationDigest(all, props)
		}
		d := design{name: name, run: run}
		d.find, d.props = run()
		ds = append(ds, d)
	}
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make([]string, len(ds))
		for i, d := range ds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				find, props := d.run()
				if find != d.find {
					errs[i] += " bitslice.Find differs from the serial run;"
				}
				if props != d.props {
					errs[i] += " PropagateAll differs from the serial run;"
				}
			}()
		}
		wg.Wait()
		for i, e := range errs {
			if e != "" {
				t.Errorf("round %d, %s:%s", round, ds[i].name, e)
			}
		}
	}
}
