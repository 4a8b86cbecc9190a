package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// blockingExec returns an executor that parks every job on a gate and an
// idempotent release function.
func blockingExec() (exec func(context.Context, *Job), release func()) {
	gate := make(chan struct{})
	var once sync.Once
	exec = func(ctx context.Context, j *Job) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		j.finish(JobDone, []byte("{}"), false, "")
	}
	return exec, func() { once.Do(func() { close(gate) }) }
}

func TestQueueBackpressure(t *testing.T) {
	exec, release := blockingExec()
	q := NewQueue(1, 2, exec)
	defer func() {
		release()
		q.Drain(context.Background())
	}()

	// One job occupies the worker; two more fill the queue; the fourth
	// must be rejected without blocking.
	var jobs []*Job
	first := newJob(&request{fingerprint: "fp"})
	if err := q.Submit(first); err != nil {
		t.Fatalf("submit first: %v", err)
	}
	jobs = append(jobs, first)
	waitFor(t, func() bool { return q.Running() == 1 })
	for i := 0; i < 2; i++ {
		j := newJob(&request{fingerprint: "fp"})
		if err := q.Submit(j); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	if q.Depth() != 2 {
		t.Fatalf("queue depth = %d, want 2", q.Depth())
	}

	extra := newJob(&request{fingerprint: "fp"})
	if err := q.Submit(extra); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit beyond capacity: err = %v, want ErrQueueFull", err)
	}

	release()
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("job did not finish after release")
		}
		if st := j.State(); st != JobDone {
			t.Errorf("job state = %q, want done", st)
		}
	}
}

func TestQueueDrainRejectsNewWork(t *testing.T) {
	exec, release := blockingExec()
	q := NewQueue(1, 4, exec)
	j := newJob(&request{fingerprint: "fp"})
	if err := q.Submit(j); err != nil {
		t.Fatal(err)
	}
	release()
	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := j.State(); st != JobDone {
		t.Errorf("queued job not drained: state %q", st)
	}
	if err := q.Submit(newJob(&request{fingerprint: "fp"})); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after drain: err = %v, want ErrShuttingDown", err)
	}
	// Idempotent.
	if err := q.Drain(context.Background()); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

func TestQueueDrainDeadlineCancelsJobs(t *testing.T) {
	started := make(chan struct{}, 1)
	exec := func(ctx context.Context, j *Job) {
		started <- struct{}{}
		<-ctx.Done() // simulate an analysis that only stops when canceled
		j.finish(JobDegraded, []byte("{}"), false, "")
	}
	q := NewQueue(1, 1, exec)
	j := newJob(&request{fingerprint: "fp"})
	if err := q.Submit(j); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	if st := j.State(); st != JobDegraded {
		t.Errorf("canceled job state = %q, want degraded", st)
	}
}

func TestQueueRetiresOldJobs(t *testing.T) {
	exec := func(ctx context.Context, j *Job) { j.finish(JobDone, []byte("{}"), false, "") }
	q := NewQueue(2, maxRetiredJobs+16, exec)
	defer q.Drain(context.Background())
	var first *Job
	for i := 0; i < maxRetiredJobs+8; i++ {
		j := newJob(&request{fingerprint: "fp"})
		if i == 0 {
			first = j
		}
		if err := q.Submit(j); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		<-j.Done()
	}
	if q.Get(first.ID) != nil {
		t.Error("oldest finished job should have been forgotten")
	}
	if len(q.byID) > maxRetiredJobs+q.Capacity() {
		t.Errorf("job table unbounded: %d entries", len(q.byID))
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
