package par

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestDoClaimsEachIndexOnce: every index is claimed exactly once, each
// worker sees its indices ascending, and no more than min(workers, n)
// workers run.
func TestDoClaimsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			counts := make([]int32, n)
			var running atomic.Int32
			Do(n, workers, nil, func(claim func() (int, bool)) {
				running.Add(1)
				last := -1
				for i, ok := claim(); ok; i, ok = claim() {
					if i <= last {
						t.Errorf("workers=%d n=%d: index %d claimed after %d", workers, n, i, last)
					}
					last = i
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Errorf("workers=%d n=%d: index %d claimed %d times", workers, n, i, c)
				}
			}
			if workers > 0 && int(running.Load()) > min(workers, n) {
				t.Errorf("workers=%d n=%d: %d workers ran", workers, n, running.Load())
			}
		}
	}
}

// TestDoNoClaimAfterStop: stop is polled once before every claim, so the
// indices claimed before it first returns true on its 10th poll are 0..8;
// no claim succeeds after that, and stop is not polled again.
func TestDoNoClaimAfterStop(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var polls atomic.Int32
		var claimed [100]atomic.Int32
		Do(100, workers, func() bool {
			if polls.Add(1) > 10 {
				t.Errorf("workers=%d: stop polled after it returned true", workers)
			}
			return polls.Load() >= 10
		}, func(claim func() (int, bool)) {
			for i, ok := claim(); ok; i, ok = claim() {
				claimed[i].Add(1)
			}
		})
		for i := range claimed {
			want := int32(0)
			if i < 9 {
				want = 1
			}
			if got := claimed[i].Load(); got != want {
				t.Errorf("workers=%d: index %d claimed %d times, want %d", workers, i, got, want)
			}
		}
	}
}

// TestDoReraisesWorkerPanic: a panic on one index reaches the caller after
// every worker has returned, with its text and the stack of the goroutine
// it was raised on.
func TestDoReraisesWorkerPanic(t *testing.T) {
	var done atomic.Int32
	var got any
	func() {
		defer func() { got = recover() }()
		Do(100, 4, nil, func(claim func() (int, bool)) {
			defer done.Add(1)
			for i, ok := claim(); ok; i, ok = claim() {
				if i == 57 {
					explode(i)
				}
			}
		})
	}()
	if got == nil {
		t.Fatal("panic on index 57 did not reach the caller")
	}
	text := fmt.Sprint(got)
	if !strings.HasPrefix(text, "boom at 57\n") || !strings.Contains(text, "par.explode") {
		t.Errorf("re-raised panic lacks its text or the worker's stack:\n%s", text)
	}
	if done.Load() != 4 {
		t.Errorf("%d of 4 workers returned before the re-raise", done.Load())
	}
}

func explode(i int) { panic(fmt.Sprintf("boom at %d", i)) }
