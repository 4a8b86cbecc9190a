package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Job states, as reported on GET /v1/jobs/{id} and counted on /metrics.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"     // finished with a complete report
	JobDegraded = "degraded" // finished, but the report is partial
	JobFailed   = "failed"   // internal error while rendering the report
)

// Queue errors, mapped to 503 responses by the HTTP layer.
var (
	ErrQueueFull    = errors.New("server: job queue full")
	ErrShuttingDown = errors.New("server: shutting down")
)

// maxRetiredJobs bounds how many finished jobs stay queryable. Older
// finished jobs are forgotten FIFO so the job table cannot grow without
// bound under sustained traffic.
const maxRetiredJobs = 1024

// Job is one queued analysis. ID and the request are immutable after
// Submit; the mutable state is guarded by mu and read via Status.
type Job struct {
	ID string
	request

	mu       sync.Mutex
	state    string
	cacheHit bool
	report   []byte
	errText  string
	created  time.Time
	started  time.Time
	finished time.Time

	done chan struct{} // closed when the job reaches a terminal state
}

// JobStatus is the wire form of a job on GET /v1/jobs/{id}. Report holds
// the full JSON report once the job is done or degraded.
type JobStatus struct {
	ID          string          `json:"id"`
	Status      string          `json:"status"`
	Fingerprint string          `json:"fingerprint"`
	CacheHit    bool            `json:"cache_hit,omitempty"`
	Error       string          `json:"error,omitempty"`
	CreatedAt   time.Time       `json:"created_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	Report      json.RawMessage `json:"report,omitempty"`
}

// Status snapshots the job for serving.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.ID,
		Status:      j.state,
		Fingerprint: j.fingerprint,
		CacheHit:    j.cacheHit,
		Error:       j.errText,
		CreatedAt:   j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.state == JobDone || j.state == JobDegraded {
		st.Report = json.RawMessage(j.report)
	}
	return st
}

// State returns the job's current state string.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

func (j *Job) markRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
}

func (j *Job) finish(state string, report []byte, cacheHit bool, errText string) {
	j.mu.Lock()
	j.state = state
	j.report = report
	j.cacheHit = cacheHit
	j.errText = errText
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// time-derived ID rather than crashing the service.
		return fmt.Sprintf("job-%x", time.Now().UnixNano())
	}
	return "job-" + hex.EncodeToString(b[:])
}

// Queue is the bounded job queue: a buffered channel of jobs drained by a
// fixed worker pool, with an ID table for status lookups. Submission is
// non-blocking — a full queue is backpressure the client sees as 503, not
// an unbounded memory commitment.
type Queue struct {
	exec    func(ctx context.Context, j *Job)
	jobs    chan *Job
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	workers int
	running int64

	mu      sync.Mutex // guards byID, retired, closing, and the jobs send/close pair
	byID    map[string]*Job
	retired []string
	closing bool

	// Exponentially weighted mean of recent job execution times, feeding
	// the Retry-After hint and the queue-wait gauge.
	execMu      sync.Mutex
	execMean    float64 // seconds
	execSamples int64
}

// NewQueue starts workers goroutines draining a queue of the given depth.
// exec runs one job to completion; it must call finish on the job.
func NewQueue(workers, depth int, exec func(ctx context.Context, j *Job)) *Queue {
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		exec:    exec,
		jobs:    make(chan *Job, depth),
		ctx:     ctx,
		cancel:  cancel,
		workers: workers,
		byID:    make(map[string]*Job),
	}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for j := range q.jobs {
		j.markRunning()
		q.addRunning(1)
		begin := time.Now()
		q.exec(q.ctx, j)
		q.noteExec(time.Since(begin))
		q.addRunning(-1)
		q.retire(j)
	}
}

func (q *Queue) addRunning(d int64) {
	q.mu.Lock()
	q.running += d
	q.mu.Unlock()
}

// retire keeps the finished-job table bounded.
func (q *Queue) retire(j *Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.retired = append(q.retired, j.ID)
	for len(q.retired) > maxRetiredJobs {
		delete(q.byID, q.retired[0])
		q.retired = q.retired[1:]
	}
}

// newJob wraps an analysis request as a queued job. The job is not yet
// submitted.
func newJob(req *request) *Job {
	return &Job{
		ID:      newJobID(),
		request: *req,
		state:   JobQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
}

// Submit enqueues j. It never blocks: when the queue is at capacity it
// returns ErrQueueFull, and after Drain has begun it returns
// ErrShuttingDown.
func (q *Queue) Submit(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closing {
		return ErrShuttingDown
	}
	select {
	case q.jobs <- j:
		q.byID[j.ID] = j
		return nil
	default:
		return ErrQueueFull
	}
}

// Get returns the job with the given ID, or nil.
func (q *Queue) Get(id string) *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.byID[id]
}

// noteExec feeds one job's execution time into the running mean. The
// EWMA (alpha 0.3) tracks shifts in workload — a burst of BigSoC jobs
// raises the estimate within a few completions — without letting one
// outlier dominate.
func (q *Queue) noteExec(d time.Duration) {
	q.execMu.Lock()
	if q.execSamples == 0 {
		q.execMean = d.Seconds()
	} else {
		q.execMean = 0.7*q.execMean + 0.3*d.Seconds()
	}
	q.execSamples++
	q.execMu.Unlock()
}

// EstimatedWaitSeconds estimates how long a job submitted now would wait
// to start: queued jobs times the recent mean execution time, spread
// across the worker pool. Zero until the first job completes.
func (q *Queue) EstimatedWaitSeconds() float64 {
	q.execMu.Lock()
	mean := q.execMean
	q.execMu.Unlock()
	if q.workers <= 0 {
		return 0
	}
	return float64(len(q.jobs)) * mean / float64(q.workers)
}

// Depth returns the number of jobs waiting to start.
func (q *Queue) Depth() int { return len(q.jobs) }

// Capacity returns the queue bound.
func (q *Queue) Capacity() int { return cap(q.jobs) }

// Running returns the number of jobs currently executing.
func (q *Queue) Running() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int(q.running)
}

// Closing reports whether Drain has begun.
func (q *Queue) Closing() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closing
}

// Drain stops intake and waits for every queued and running job to finish.
// If ctx expires first, the in-flight analyses are canceled cooperatively
// (the PR 2 cancellation hooks make them return degraded reports quickly)
// and Drain returns ctx.Err once the workers exit. Drain is idempotent.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	if !q.closing {
		q.closing = true
		close(q.jobs)
	}
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		q.cancel()
		return nil
	case <-ctx.Done():
		q.cancel()
		<-done
		return ctx.Err()
	}
}
