package words_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"netlistre/internal/core"
	"netlistre/internal/netlist"
	"netlistre/internal/words"
)

// TestPropagateAllWorkers: PropagateAll returns the same words and
// propagations, in the same order, at 1, 2 and 4 workers, on every labeled
// article and simplified BigSoC. Under -short it runs on two small
// articles, so the short race run covers the checking goroutines.
func TestPropagateAllWorkers(t *testing.T) {
	designs := propagationDesigns(t)
	if testing.Short() {
		designs = map[string]*netlist.Netlist{"usb": designs["usb"], "evoter-lut": designs["evoter-lut"]}
	}
	for name, nl := range designs {
		seeds := core.Analyze(nl, core.Options{Workers: 1, SkipWordProp: true}).Words
		all1, props1 := words.PropagateAll(nl, seeds, 3, words.Options{Workers: 1})
		if len(props1) == 0 {
			t.Errorf("%s: no propagations", name)
		}
		for _, n := range []int{2, 4} {
			all, props := words.PropagateAll(nl, seeds, 3, words.Options{Workers: n})
			if !reflect.DeepEqual(all, all1) || !reflect.DeepEqual(props, props1) {
				t.Errorf("%s: %d workers found %d words / %d propagations, 1 worker %d / %d, or they differ",
					name, n, len(all), len(props), len(all1), len(props1))
			}
		}
	}
}

// TestPropagateAllInterruptWorkers: an Interrupt that fires after its k-th
// poll and stays set stops the checking goroutines mid-round. What
// PropagateAll returns then is the seeds and words the uninterrupted run
// also finds, and fewer of them when the interrupt comes early.
func TestPropagateAllInterruptWorkers(t *testing.T) {
	nl := propagationDesigns(t)["usb"]
	seeds := core.Analyze(nl, core.Options{Workers: 1, SkipWordProp: true}).Words
	var polls atomic.Int64
	count := func() bool { polls.Add(1); return false }
	full, _ := words.PropagateAll(nl, seeds, 3, words.Options{Workers: 2, Interrupt: count})
	total := polls.Load()
	known := make(map[string]bool, len(full))
	for _, w := range full {
		known[w.Key()] = true
	}
	for _, k := range []int64{2, total / 3, 2 * total / 3} {
		polls.Store(0)
		stop := func() bool { return polls.Add(1) > k }
		all, _ := words.PropagateAll(nl, seeds, 3, words.Options{Workers: 2, Interrupt: stop})
		if len(all) < len(seeds) || len(all) > len(full) || k == 2 && len(all) == len(full) {
			t.Errorf("interrupt after %d of %d polls: %d words, want from %d to %d", k, total, len(all), len(seeds), len(full))
		}
		for _, w := range all {
			if !known[w.Key()] {
				t.Errorf("interrupt after %d polls: word %v not found by the full run", k, w.Bits)
			}
		}
	}
}

// TestPropagateAllWorkerPanic: an Interrupt that panics on every poll after
// its 7th panics on both checking goroutines. The panic reaches the caller
// of PropagateAll, as a stage body's panic must for the scheduler to mark
// the stage failed, instead of ending the process from a worker goroutine.
func TestPropagateAllWorkerPanic(t *testing.T) {
	nl := propagationDesigns(t)["usb"]
	seeds := core.Analyze(nl, core.Options{Workers: 1, SkipWordProp: true}).Words
	var polls atomic.Int64
	boom := func() bool {
		if polls.Add(1) > 7 {
			panic("boom")
		}
		return false
	}
	var got any
	func() {
		defer func() { got = recover() }()
		words.PropagateAll(nl, seeds, 3, words.Options{Workers: 2, Interrupt: boom})
	}()
	if text := fmt.Sprint(got); !strings.HasPrefix(text, "boom\n") || !strings.Contains(text, "goroutine") {
		t.Errorf("PropagateAll re-raised %q, want boom followed by the worker's stack", text)
	}
}
