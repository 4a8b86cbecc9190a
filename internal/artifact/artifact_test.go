package artifact

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHasherDeterministicAndSeparated(t *testing.T) {
	digest := func(build func(h *Hasher)) Digest {
		h := NewHasher("test-v1")
		build(h)
		return h.Sum()
	}
	a := digest(func(h *Hasher) { h.Str("stage"); h.Int(3); h.Bool(true) })
	b := digest(func(h *Hasher) { h.Str("stage"); h.Int(3); h.Bool(true) })
	if a != b {
		t.Fatalf("identical inputs hashed differently: %s vs %s", a, b)
	}
	variants := []Digest{
		digest(func(h *Hasher) { h.Str("stage"); h.Int(3); h.Bool(false) }),
		digest(func(h *Hasher) { h.Str("stage"); h.Int(4); h.Bool(true) }),
		digest(func(h *Hasher) { h.Str("stagf"); h.Int(3); h.Bool(true) }),
		digest(func(h *Hasher) { h.Str("st"); h.Str("age"); h.Int(3); h.Bool(true) }),
	}
	seen := map[Digest]bool{a: true}
	for i, v := range variants {
		if seen[v] {
			t.Errorf("variant %d collided with an earlier digest", i)
		}
		seen[v] = true
	}
	if NewHasher("domain-a").Sum() == NewHasher("domain-b").Sum() {
		t.Error("domain labels do not separate digests")
	}
}

func TestStoreDoCachesAndCounts(t *testing.T) {
	s := NewStore(8)
	calls := 0
	compute := func() (*Artifact, bool) {
		calls++
		return &Artifact{Stage: "x", Digest: "k1", Value: 42, Items: 1}, true
	}
	a, cached, err := s.Do(context.Background(), "k1", compute)
	if err != nil || cached || a.Value != 42 {
		t.Fatalf("first Do = (%v, %v, %v), want computed 42", a, cached, err)
	}
	a, cached, err = s.Do(context.Background(), "k1", compute)
	if err != nil || !cached || a.Value != 42 {
		t.Fatalf("second Do = (%v, %v, %v), want cached 42", a, cached, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(2)
	for i := 0; i < 3; i++ {
		key := Digest(fmt.Sprintf("k%d", i))
		i := i
		s.Do(context.Background(), key, func() (*Artifact, bool) {
			return &Artifact{Digest: key, Value: i, Size: int64(10 + i)}, true
		})
	}
	if _, ok := s.Get("k0"); ok {
		t.Error("k0 should have been evicted")
	}
	if _, ok := s.Get("k2"); !ok {
		t.Error("k2 should still be stored")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
	if st.Bytes != 11+12 {
		t.Fatalf("bytes = %d, want the sizes of k1 and k2 (23)", st.Bytes)
	}
}

// TestStoreSingleFlight races many goroutines at one key: the compute
// function must run exactly once and everyone must see its value.
func TestStoreSingleFlight(t *testing.T) {
	s := NewStore(8)
	var calls int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			a, _, err := s.Do(context.Background(), "shared", func() (*Artifact, bool) {
				atomic.AddInt32(&calls, 1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return &Artifact{Digest: "shared", Value: "v"}, true
			})
			if err != nil || a.Value != "v" {
				t.Errorf("Do = (%v, %v)", a, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

// TestStoreDeclinedPublication: a producer that returns ok=false (its run
// was interrupted) must not poison the store; the next caller recomputes.
func TestStoreDeclinedPublication(t *testing.T) {
	s := NewStore(8)
	a, cached, err := s.Do(context.Background(), "k", func() (*Artifact, bool) {
		return &Artifact{Digest: "k", Value: "partial"}, false
	})
	if err != nil || cached || a.Value != "partial" {
		t.Fatalf("declined Do = (%v, %v, %v)", a, cached, err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("declined artifact was stored")
	}
	a, cached, _ = s.Do(context.Background(), "k", func() (*Artifact, bool) {
		return &Artifact{Digest: "k", Value: "complete"}, true
	})
	if cached || a.Value != "complete" {
		t.Fatalf("recompute = (%v, %v), want fresh complete value", a, cached)
	}
	if a, ok := s.Get("k"); !ok || a.Value != "complete" {
		t.Fatal("complete artifact was not stored")
	}
}

// TestStoreWaiterTakesOverAfterDecline: a waiter blocked on a declining
// leader must retry and run its own computation.
func TestStoreWaiterTakesOverAfterDecline(t *testing.T) {
	s := NewStore(8)
	leaderIn := make(chan struct{})
	waiterReady := make(chan struct{})
	done := make(chan string, 1)
	go func() {
		s.Do(context.Background(), "k", func() (*Artifact, bool) {
			close(leaderIn)
			<-waiterReady
			time.Sleep(2 * time.Millisecond) // let the waiter block on the flight
			return &Artifact{Digest: "k", Value: "partial"}, false
		})
	}()
	<-leaderIn
	close(waiterReady)
	go func() {
		a, cached, err := s.Do(context.Background(), "k", func() (*Artifact, bool) {
			return &Artifact{Digest: "k", Value: "retried"}, true
		})
		if err != nil || cached {
			done <- fmt.Sprintf("waiter Do = (%v, %v, %v)", a, cached, err)
			return
		}
		done <- a.Value.(string)
	}()
	if got := <-done; got != "retried" {
		t.Fatalf("waiter result = %q, want it to take over and compute", got)
	}
}

// TestStoreWaiterHonorsContext: a waiter whose context dies while the
// leader is still computing gets the context error instead of blocking.
func TestStoreWaiterHonorsContext(t *testing.T) {
	s := NewStore(8)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go func() {
		s.Do(context.Background(), "k", func() (*Artifact, bool) {
			close(leaderIn)
			<-release
			return &Artifact{Digest: "k", Value: "v"}, true
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := s.Do(ctx, "k", func() (*Artifact, bool) {
		t.Error("waiter must not compute while the leader holds the flight")
		return nil, false
	})
	if err != context.Canceled {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
}

// TestStorePanicReleasesFlight: a panicking compute must release the
// flight so later callers are not deadlocked, and must propagate.
func TestStorePanicReleasesFlight(t *testing.T) {
	s := NewStore(8)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate out of Do")
			}
		}()
		s.Do(context.Background(), "k", func() (*Artifact, bool) {
			panic("boom")
		})
	}()
	a, cached, err := s.Do(context.Background(), "k", func() (*Artifact, bool) {
		return &Artifact{Digest: "k", Value: "ok"}, true
	})
	if err != nil || cached || a.Value != "ok" {
		t.Fatalf("post-panic Do = (%v, %v, %v), want a fresh computation", a, cached, err)
	}
}
