package core

// A bounded worker-pool scheduler for the portfolio's stage DAG. The
// paper's analyses are largely independent (Figure 1): bitslice matching,
// common-support analysis and the latch-connection-graph detectors share
// no intermediate state, so they run concurrently; downstream stages are
// gated on their declared inputs. Execution is deterministic for any
// worker count because every stage consumes only the artifacts of its
// declared dependencies, writes exactly one output artifact, and the
// final module list is assembled in a fixed canonical order.
//
// Memoization: when the analysis carries a stage store, each stage's
// input closure is digested — netlist fingerprint, stage name, the
// stage-relevant option fields, and the digests of its dependency
// artifacts — and the store is consulted before the stage body runs. A
// hit replays the finished artifact (provenance StageCached in the
// trace); a miss executes under single-flight so concurrent analyses of
// the same content compute each stage once. Only complete artifacts with
// fully canonical inputs are published: a stage interrupted mid-run, or
// one that consumed a partial upstream output, keeps its result out of
// the store so a later run never resumes from poisoned state.
//
// Robustness: every stage runs under the analysis context (optionally
// narrowed by a per-stage timeout), panics are recovered and converted to
// a Failed status with the stack, and a stage that times out or fails
// does not stop the run — downstream stages still execute against
// whatever partial artifacts the stage managed to produce. A panic in a
// stage's inner worker counts as the stage's own: par.Do re-raises it on
// the stage's goroutine, with the worker's stack, so it too ends as
// StageFailed.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"netlistre/internal/artifact"
)

// StageStatus classifies how a pipeline stage ended.
type StageStatus uint8

const (
	// StageOK means the stage ran to completion.
	StageOK StageStatus = iota
	// StageTimedOut means the stage hit Options.StageTimeout or the
	// whole-run Options.Timeout; its outputs may be partial.
	StageTimedOut
	// StageCanceled means the analysis context was canceled; the stage's
	// outputs may be partial, or empty when the context was already
	// canceled before the stage started.
	StageCanceled
	// StageFailed means the stage panicked; the panic value and stack are
	// in StageTiming.Err.
	StageFailed
)

// String returns the status name used in reports.
func (s StageStatus) String() string {
	switch s {
	case StageOK:
		return "ok"
	case StageTimedOut:
		return "timed-out"
	case StageCanceled:
		return "canceled"
	case StageFailed:
		return "failed"
	}
	return fmt.Sprintf("StageStatus(%d)", uint8(s))
}

// StageProvenance records how a stage's output came to be: executed in
// this run, replayed from the stage store, or never produced because the
// run was already over. Orthogonal to StageStatus — a degraded run and a
// warm-cache run both differ from a cold one only in provenance.
type StageProvenance uint8

const (
	// StageRan means the stage body executed in this run.
	StageRan StageProvenance = iota
	// StageCached means the stage's artifact was replayed from the stage
	// store (or from a concurrent analysis's in-flight computation)
	// without executing the body.
	StageCached
	// StageSkipped means the body never ran: the whole-run budget had
	// expired or the context was canceled before the stage started.
	StageSkipped
)

// String returns the provenance name used in traces ("ran", "cached",
// "skipped").
func (p StageProvenance) String() string {
	switch p {
	case StageRan:
		return "ran"
	case StageCached:
		return "cached"
	case StageSkipped:
		return "skipped"
	}
	return fmt.Sprintf("StageProvenance(%d)", uint8(p))
}

// StageTiming records the wall-clock footprint of one pipeline stage.
type StageTiming struct {
	// Name identifies the stage (see Analyze for the stage list).
	Name string
	// Start is the stage's start offset from the beginning of Analyze.
	Start time.Duration
	// Duration is the stage's wall-clock run time.
	Duration time.Duration
	// Modules counts the items the stage produced: inferred modules for
	// the detector stages, words for the word stage, selected modules
	// for the overlap stage, and 0 for pure intermediate stages. A
	// cached stage reports the count recorded when its artifact was
	// first produced.
	Modules int
	// Status classifies how the stage ended; anything but StageOK marks
	// the report as Degraded.
	Status StageStatus
	// Provenance records whether the stage body ran, was replayed from
	// the stage store, or was skipped outright.
	Provenance StageProvenance
	// Err holds the error text for a non-OK stage (the context error, or
	// the panic value plus stack for StageFailed).
	Err string
}

// StageEvent is delivered to Options.Progress when a stage starts
// (Done=false) and finishes (Done=true). Events are emitted serially:
// the callback is never invoked concurrently with itself.
type StageEvent struct {
	Stage string
	Done  bool
	// Start is the stage's start offset from the beginning of Analyze.
	Start time.Duration
	// Duration and Modules are zero until Done.
	Duration time.Duration
	Modules  int
	// Status, Provenance and Err mirror the finished stage's
	// StageTiming; all are zero until Done.
	Status     StageStatus
	Provenance StageProvenance
	Err        string
}

// stage is one node of the DAG. Deps name earlier stages whose artifacts
// the stage consumes; they must finish before run is called, and their
// digests are folded into this stage's digest. run executes the body
// against the dependency artifacts and returns the output value plus the
// produced item count for the trace. The context passed to run is the
// analysis context, narrowed by the per-stage timeout when one is
// configured.
type stage struct {
	name string
	deps []string
	// digest appends the stage-relevant Options fields to the stage's
	// content digest; nil when the stage has no option knobs of its own.
	// Fields that cannot change the result (Workers, budgets, callbacks)
	// must not be digested.
	digest func(h *artifact.Hasher)
	// uncacheable forces execution and suppresses publication — used when
	// the stage's behavior cannot be digested (analyst ExtraPasses).
	uncacheable bool
	run         func(ctx context.Context, in map[string]*artifact.Artifact) (value any, items int)
}

// scheduler executes a stage DAG with at most `workers` stages in flight.
type scheduler struct {
	ctx          context.Context
	stageTimeout time.Duration
	workers      int
	start        time.Time
	progress     func(StageEvent)

	// store and fingerprint enable memoization; both zero on the
	// unbudgeted fast path so no digesting happens at all.
	store       *artifact.Store
	fingerprint string

	stages []stage
	index  map[string]int
	// arts[i] is stage i's output artifact (nil when it never produced
	// one); canonical[i] reports whether that artifact is the complete
	// result of fully complete inputs — the publication criterion.
	arts      []*artifact.Artifact
	canonical []bool
	timings   []StageTiming

	mu sync.Mutex // serializes progress callbacks
}

func newScheduler(ctx context.Context, workers int, stageTimeout time.Duration, start time.Time, progress func(StageEvent), store *artifact.Store, fingerprint string) *scheduler {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	return &scheduler{ctx: ctx, stageTimeout: stageTimeout, workers: workers,
		start: start, progress: progress, store: store, fingerprint: fingerprint}
}

func (s *scheduler) emit(ev StageEvent) {
	if s.progress == nil {
		return
	}
	s.mu.Lock()
	s.progress(ev)
	s.mu.Unlock()
}

// run executes the stages and returns per-stage timings in declaration
// order plus each stage's output artifact. Stages may only depend on
// earlier-declared stages (the declaration order is a topological order);
// a forward or unknown dependency panics, as it is a programming error in
// the stage table.
func (s *scheduler) run(stages []stage) ([]StageTiming, []*artifact.Artifact) {
	n := len(stages)
	s.stages = stages
	s.index = make(map[string]int, n)
	for i, st := range stages {
		if _, dup := s.index[st.name]; dup {
			panic(fmt.Sprintf("core: duplicate stage %q", st.name))
		}
		s.index[st.name] = i
	}
	waiting := make([]int, n) // unmet dependency count per stage
	dependents := make([][]int, n)
	for i, st := range stages {
		for _, d := range st.deps {
			j, ok := s.index[d]
			if !ok || j >= i {
				panic(fmt.Sprintf("core: stage %q has invalid dep %q", st.name, d))
			}
			waiting[i]++
			dependents[j] = append(dependents[j], i)
		}
	}

	s.timings = make([]StageTiming, n)
	s.arts = make([]*artifact.Artifact, n)
	s.canonical = make([]bool, n)
	done := make(chan int)
	// ready holds runnable stage indices in ascending order so that with
	// Workers=1 execution follows the declaration (serial) order.
	var ready []int
	for i := range stages {
		if waiting[i] == 0 {
			ready = append(ready, i)
		}
	}
	running, completed := 0, 0
	for completed < n {
		for len(ready) > 0 && running < s.workers {
			i := ready[0]
			ready = ready[1:]
			running++
			go s.exec(i, done)
		}
		i := <-done
		running--
		completed++
		for _, d := range dependents[i] {
			waiting[d]--
			if waiting[d] == 0 {
				// Insert in ascending order (the list is tiny).
				pos := len(ready)
				for k, r := range ready {
					if r > d {
						pos = k
						break
					}
				}
				ready = append(ready[:pos], append([]int{d}, ready[pos:]...)...)
			}
		}
	}
	return s.timings, s.arts
}

func (s *scheduler) exec(i int, done chan<- int) {
	st := s.stages[i]
	startOff := time.Since(s.start)
	s.emit(StageEvent{Stage: st.name, Start: startOff})
	status, errText, prov, art, canonical := s.runStage(st)
	dur := time.Since(s.start) - startOff
	mods := 0
	if art != nil {
		mods = art.Items
	}
	// Publication order matters for visibility: arts/canonical are read
	// by dependents only after the done send below is received by the
	// scheduling loop, which happens-before their exec goroutines start.
	s.arts[i] = art
	s.canonical[i] = canonical
	s.timings[i] = StageTiming{Name: st.name, Start: startOff, Duration: dur,
		Modules: mods, Status: status, Provenance: prov, Err: errText}
	s.emit(StageEvent{Stage: st.name, Done: true, Start: startOff, Duration: dur,
		Modules: mods, Status: status, Provenance: prov, Err: errText})
	done <- i
}

// runStage executes one stage: it gathers the dependency artifacts,
// consults the stage store when the inputs are canonical, and otherwise
// runs the body with panic recovery and timeout/cancel status mapping.
func (s *scheduler) runStage(st stage) (status StageStatus, errText string, prov StageProvenance, art *artifact.Artifact, canonical bool) {
	in := make(map[string]*artifact.Artifact, len(st.deps))
	depsCanonical := true
	for _, d := range st.deps {
		j := s.index[d]
		if a := s.arts[j]; a != nil {
			in[d] = a
		}
		if !s.canonical[j] {
			depsCanonical = false
		}
	}

	// When the run is already over (whole-run timeout expired or the
	// caller canceled), skip the stage body entirely: every remaining
	// stage is marked the same way and produces nothing, which keeps the
	// partial report deterministic for a given cancellation point.
	if err := s.ctx.Err(); err != nil {
		return statusFromCtxErr(err), err.Error(), StageSkipped, nil, false
	}
	ctx := s.ctx
	if s.stageTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.stageTimeout)
		defer cancel() // releases the timer; no goroutine outlives the stage
	}
	defer func() {
		if r := recover(); r != nil {
			status = StageFailed
			errText = fmt.Sprintf("panic: %v\n%s", r, debug.Stack())
			prov = StageRan
			art = nil
			canonical = false
		}
	}()

	compute := func(digest artifact.Digest) (*artifact.Artifact, bool) {
		v, items := st.run(ctx, in)
		a := &artifact.Artifact{Stage: st.name, Digest: digest, Value: v, Items: items}
		// Publish only complete results of complete inputs; a partial
		// artifact is still handed to this run's downstream stages.
		return a, depsCanonical && ctx.Err() == nil
	}

	if s.store != nil && !st.uncacheable && depsCanonical {
		key := s.stageKey(st)
		a, cached, err := s.store.Do(ctx, key, func() (*artifact.Artifact, bool) {
			return compute(key)
		})
		if err != nil {
			// The wait on another analysis's in-flight computation
			// outlived this run's budget.
			return statusFromCtxErr(err), err.Error(), StageSkipped, nil, false
		}
		if cached {
			return StageOK, "", StageCached, a, true
		}
		if err := ctx.Err(); err != nil {
			return statusFromCtxErr(err), err.Error(), StageRan, a, false
		}
		return StageOK, "", StageRan, a, true
	}

	a, _ := compute("")
	if err := ctx.Err(); err != nil {
		return statusFromCtxErr(err), err.Error(), StageRan, a, false
	}
	return StageOK, "", StageRan, a, depsCanonical && !st.uncacheable
}

// stageKey digests a stage's input closure: the netlist fingerprint, the
// stage name, the stage-relevant option fields, and the digests of the
// dependency artifacts (all canonical when this is called).
func (s *scheduler) stageKey(st stage) artifact.Digest {
	h := artifact.NewHasher("netlistre-stage-v1")
	h.Str(s.fingerprint)
	h.Str(st.name)
	if st.digest != nil {
		st.digest(h)
	}
	for _, d := range st.deps {
		h.Digest(s.arts[s.index[d]].Digest)
	}
	return h.Sum()
}

// statusFromCtxErr maps a context error to the stage status it implies.
func statusFromCtxErr(err error) StageStatus {
	if errors.Is(err, context.DeadlineExceeded) {
		return StageTimedOut
	}
	return StageCanceled
}
