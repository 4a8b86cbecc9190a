// Package par is the one index loop the analysis stages spread their
// independent items over: node chunks (bitslice), support classes
// (support), the words of a propagation round (words) and module-match
// candidates (modmatch). How items are claimed, when the claims stop and
// what becomes of a worker's panic are decided here, once.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Do hands the indices 0..n-1 out in ascending order, each exactly once,
// to at most min(workers, n) goroutines (workers <= 0 means GOMAXPROCS);
// the calling goroutine is one of them. Each goroutine runs worker once,
// with its own per-worker state, and worker takes indices through claim
// until claim reports false. stop (nil means never) is polled before
// every claim, never concurrently; once it returns true, or once a worker
// panics, no goroutine gets another index.
//
// Do returns when every worker has returned. If a worker panicked, Do
// then re-raises the first panic on the caller, its text followed by the
// worker goroutine's stack. Callers write item i's result into slot i and
// merge the slots in index order, so the result does not depend on
// scheduling.
func Do(n, workers int, stop func() bool, worker func(claim func() (int, bool))) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		mu    sync.Mutex
		next  int
		ended bool
		fault any
		wg    sync.WaitGroup
	)
	// stop runs under mu: a poll and the claim it guards are one step, so
	// a poll that returns true is the last word on claims.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		ended = ended || next >= n || stop != nil && stop()
		if ended {
			return 0, false
		}
		next++
		return next - 1, true
	}
	run := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				defer mu.Unlock()
				ended = true
				if fault == nil {
					fault = fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", r, debug.Stack())
				}
			}
		}()
		worker(claim)
	}
	if k := min(workers, n); k > 0 {
		wg.Add(k)
		for g := 1; g < k; g++ {
			go run()
		}
		run()
	}
	wg.Wait()
	if fault != nil {
		panic(fault)
	}
}
