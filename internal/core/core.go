// Package core orchestrates the full reverse-engineering portfolio of the
// paper (Figure 1): bitslice identification and aggregation, word
// identification and propagation, QBF module matching, common-support
// analysis, the sequential analyses, module fusion, and ILP overlap
// resolution — producing a coverage report in the shape of Table 3.
//
// The portfolio is executed as an explicit stage DAG by a bounded
// worker-pool scheduler (sched.go): the independent analyses run
// concurrently, downstream stages are gated on their declared inputs, and
// results are merged in a canonical order so the report is bit-identical
// for any worker count.
//
// Stages exchange data exclusively through typed artifacts
// (internal/artifact): each stage consumes the artifacts of its declared
// dependencies and produces exactly one output artifact, with no shared
// locals. When Options.StageStore is set, stage results are memoized
// content-addressed — the digest covers the netlist fingerprint, the stage
// name, the stage-relevant option fields, and the upstream artifact
// digests — so re-analyzing an unchanged netlist replays every stage from
// the store (provenance StageCached in the trace) and a degraded run's
// completed stages survive for the next attempt. Without a store, nothing
// is digested and the unbudgeted path has zero caching overhead.
//
// Each stage's own parameters are constants of its package. Core builds
// every stage's options from Workers, the context, KeepCandidates and
// ExtraLibrary, so a stage digest lists only options a caller can set.
package core

import (
	"context"
	"runtime"
	"time"

	"netlistre/internal/aggregate"
	"netlistre/internal/artifact"
	"netlistre/internal/bitslice"
	"netlistre/internal/graph"
	"netlistre/internal/modmatch"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/overlap"
	"netlistre/internal/seq"
	"netlistre/internal/support"
	"netlistre/internal/truth"
	"netlistre/internal/words"
)

// wordRounds bounds iterative word propagation.
const wordRounds = 3

// Options configures the portfolio. The zero value runs every algorithm
// with the paper's parameters.
type Options struct {
	Overlap overlap.Options

	// Workers bounds the number of pipeline stages in flight and the
	// inner worker pools of the bitslice, support, words and modmatch
	// stages (0 = GOMAXPROCS). The report is identical for any worker
	// count; Workers=1 runs the portfolio serially.
	Workers int
	// Timeout bounds the whole analysis (0 = no limit). When it expires,
	// running stages are interrupted cooperatively, remaining stages are
	// skipped, and the report is returned with Degraded set and the
	// affected stages marked TimedOut in the trace.
	Timeout time.Duration
	// StageTimeout bounds each pipeline stage individually (0 = no
	// limit); a stage that exceeds it is marked TimedOut, its partial
	// outputs are kept, and downstream stages still run.
	StageTimeout time.Duration
	// Progress, if non-nil, receives a StageEvent when each pipeline
	// stage starts and finishes. The callback is invoked serially but
	// from scheduler goroutines, not the Analyze caller's goroutine.
	Progress func(StageEvent)

	// StageStore, if non-nil, memoizes per-stage results across analyses:
	// a stage whose input closure (netlist fingerprint, options,
	// upstream artifacts) matches a stored artifact is replayed instead
	// of executed, with StageCached provenance in the trace. Stages
	// interrupted by a timeout or cancellation never publish, so a
	// degraded run's completed stages are reusable and a later identical
	// run re-executes only the interrupted ones. Budget fields (Workers,
	// Timeout, StageTimeout) and callbacks are excluded from the digests:
	// they cannot change a completed stage's result.
	StageStore *artifact.Store
	// Fingerprint optionally supplies a precomputed nl.Fingerprint() so
	// AnalyzeContext does not recompute it when StageStore is set (the
	// analysis service already fingerprints every request for its report
	// cache). Ignored when StageStore is nil; computed on demand when
	// empty.
	Fingerprint string

	// SkipModMatch disables QBF module matching (the most expensive
	// algorithm on wide datapaths).
	SkipModMatch bool
	// SkipWordProp disables symbolic word propagation.
	SkipWordProp bool
	// KeepCandidates includes unknown-bitslice candidate modules in the
	// report (they are never part of overlap resolution or coverage).
	KeepCandidates bool

	// ExtraLibrary appends design-specific bitslice functions to the
	// matching library (Section VI-B.1: a human analyst may extend the
	// tool with bitslices specific to the chip being analyzed).
	ExtraLibrary []truth.Entry
	// ExtraPasses run after the built-in portfolio; each returns
	// additional inferred modules that participate in overlap resolution
	// like any other (the paper's design-specific algorithms, e.g. the
	// BigSoC framebuffer-read detector). Passes run sequentially, after
	// every built-in stage has finished. Because arbitrary functions
	// cannot be digested, the extra stage (and everything downstream of
	// it) is never memoized when passes are present.
	ExtraPasses []func(*netlist.Netlist) []*module.Module
}

// Report is the outcome of analyzing one netlist.
type Report struct {
	Netlist *netlist.Netlist

	// All lists every inferred module before overlap resolution
	// (excluding analyst candidates).
	All []*module.Module
	// Candidates lists unknown-bitslice candidate modules (Section
	// II-B.1) when requested.
	Candidates []*module.Module
	// Resolved is the non-overlapping selection.
	Resolved []*module.Module

	// Words holds all identified and propagated words.
	Words []words.Word

	// TotalElements counts coverable elements (gates + latches).
	TotalElements int
	// CoverageBefore/After count elements covered before/after overlap
	// resolution.
	CoverageBefore int
	CoverageAfter  int

	// CountsBefore/After tally modules per type.
	CountsBefore map[module.Type]int
	CountsAfter  map[module.Type]int

	// Runtime is the wall-clock analysis time.
	Runtime time.Duration
	// Trace records per-stage wall-clock timings in pipeline order.
	Trace []StageTiming
	// OverlapOptimal is false when the ILP hit its node limit.
	OverlapOptimal bool
	// OverlapErr is non-nil when overlap resolution failed: a MinModules
	// coverage target proven infeasible (ilp.ErrInfeasible), or a search
	// stopped by its node limit or interrupt before it found a selection
	// reaching the target (ilp.ErrStopped). Resolved is then empty and the
	// pre-resolution module set in All stands.
	OverlapErr error

	// Degraded is true when the report is incomplete: the input failed
	// validation, the analysis timed out or was canceled, or a stage
	// panicked. The per-stage Status fields in Trace say which stages
	// were affected; everything else in the report is still valid for
	// the work that did complete.
	Degraded bool
	// ValidationErr is non-nil when the input netlist failed
	// Netlist.Validate; no analysis runs in that case.
	ValidationErr error
}

// CoverageFractionBefore returns pre-resolution coverage in [0,1].
func (r *Report) CoverageFractionBefore() float64 {
	if r.TotalElements == 0 {
		return 0
	}
	return float64(r.CoverageBefore) / float64(r.TotalElements)
}

// CoverageFraction returns post-resolution coverage in [0,1].
func (r *Report) CoverageFraction() float64 {
	if r.TotalElements == 0 {
		return 0
	}
	return float64(r.CoverageAfter) / float64(r.TotalElements)
}

// Analyze runs the full portfolio on nl.
func Analyze(nl *netlist.Netlist, opt Options) *Report {
	return AnalyzeContext(context.Background(), nl, opt)
}

// interruptOf adapts a context to the Interrupt hooks of the solver
// packages. It returns nil for a context that can never be canceled
// (e.g. context.Background with no Timeout configured) so the hot loops
// skip polling entirely and the unbudgeted path pays no overhead.
func interruptOf(ctx context.Context) func() bool {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}

// aggregateOut is the aggregate stage's artifact value: every module list
// the rest of the pipeline reads from aggregation.
type aggregateOut struct {
	// Common holds the common-signal modules (mux groups, gating, ...).
	Common []*module.Module
	// Propagated holds the propagated-signal modules (adders, parity
	// trees, ...).
	Propagated []*module.Module
	// Mux is the mux subset of Common (fusion and register detection
	// read it).
	Mux []*module.Module
	// Candidates holds unknown-bitslice candidate modules for the
	// analyst; excluded from merging and coverage.
	Candidates []*module.Module
}

// overlapOut is the overlap stage's artifact value: the merged
// pre-resolution module set plus the resolved selection and its coverage
// accounting, i.e. everything the stage contributes to the Report.
type overlapOut struct {
	All            []*module.Module
	Resolved       []*module.Module
	CoverageBefore int
	CoverageAfter  int
	CountsBefore   map[module.Type]int
	CountsAfter    map[module.Type]int
	Optimal        bool
	Err            error
}

// modsOf returns the module list produced by the named stage, or nil when
// the stage produced nothing (skipped, or a different value type).
func modsOf(in map[string]*artifact.Artifact, name string) []*module.Module {
	if a := in[name]; a != nil {
		ms, _ := a.Value.([]*module.Module)
		return ms
	}
	return nil
}

// aggOf returns the aggregate stage's output (zero value when absent).
func aggOf(in map[string]*artifact.Artifact) aggregateOut {
	if a := in["aggregate"]; a != nil {
		out, _ := a.Value.(aggregateOut)
		return out
	}
	return aggregateOut{}
}

// wordsOf returns the word stage's output (nil when absent).
func wordsOf(in map[string]*artifact.Artifact) []words.Word {
	if a := in["words"]; a != nil {
		ws, _ := a.Value.([]words.Word)
		return ws
	}
	return nil
}

// baseMods assembles the combinational module set in the canonical
// (serial) order; the word stage seeds from it.
func baseMods(in map[string]*artifact.Artifact) []*module.Module {
	agg := aggOf(in)
	var mods []*module.Module
	mods = append(mods, agg.Common...)
	mods = append(mods, agg.Propagated...)
	mods = append(mods, modsOf(in, "support")...)
	mods = append(mods, modsOf(in, "fuse")...)
	return mods
}

// mergeMods assembles the full pre-resolution module set in the canonical
// order of the serial pipeline. It reads only stage artifacts, so after a
// degraded run it merges whatever the completed stages produced. The
// register list comes from the order stage's artifact (ordered copies)
// when it exists, falling back to the raw detection output.
func mergeMods(in map[string]*artifact.Artifact) []*module.Module {
	mods := baseMods(in)
	mods = append(mods, modsOf(in, "modmatch")...)
	mods = append(mods, modsOf(in, "counters")...)
	mods = append(mods, modsOf(in, "shift")...)
	mods = append(mods, modsOf(in, "rams")...)
	if a := in["order"]; a != nil {
		mods = append(mods, modsOf(in, "order")...)
	} else {
		mods = append(mods, modsOf(in, "registers")...)
	}
	if a := in["extra"]; a != nil {
		if lists, ok := a.Value.([][]*module.Module); ok {
			for _, ms := range lists {
				mods = append(mods, ms...)
			}
		}
	}
	return mods
}

// cloneModule returns a copy of m whose Ports and Attr maps are fresh, so
// in-place edits (SetPort/SetAttr) do not reach the original. Elements and
// Slices are shared: nothing in the pipeline mutates them after
// construction.
func cloneModule(m *module.Module) *module.Module {
	c := *m
	if m.Ports != nil {
		c.Ports = make(map[string][]netlist.ID, len(m.Ports))
		for k, v := range m.Ports {
			c.Ports[k] = v
		}
	}
	if m.Attr != nil {
		c.Attr = make(map[string]string, len(m.Attr))
		for k, v := range m.Attr {
			c.Attr[k] = v
		}
	}
	return &c
}

// digestLibrary appends the effective matching library to a stage digest.
func digestLibrary(h *artifact.Hasher, lib []truth.Entry) {
	h.Bool(lib != nil)
	h.Int(int64(len(lib)))
	for _, e := range lib {
		h.Int(int64(e.Class))
		h.Uint64(e.Table.Bits)
		h.Int(int64(e.Table.N))
		h.Int(int64(len(e.ArgNames)))
		for _, a := range e.ArgNames {
			h.Str(a)
		}
	}
}

// AnalyzeContext runs the full portfolio on nl under ctx. Cancellation is
// cooperative: the solver loops (SAT search, QBF CEGAR, ILP
// branch-and-bound, cut enumeration, word propagation, BDD verification)
// poll the context and stop early, keeping the results found so far. A
// canceled or timed-out run returns a well-formed Report with Degraded
// set and the affected stages marked in Trace rather than an error; a run
// with an already-canceled context deterministically returns an empty
// degraded report.
func AnalyzeContext(ctx context.Context, nl *netlist.Netlist, opt Options) *Report {
	start := time.Now()
	rep := &Report{Netlist: nl}
	stats := nl.Stats()
	rep.TotalElements = stats.Gates + stats.Latches

	// Malformed inputs produce a report carrying the validation error
	// instead of a panic deep inside an analysis.
	if err := nl.Validate(); err != nil {
		rep.ValidationErr = err
		rep.Degraded = true
		rep.CountsBefore = map[module.Type]int{}
		rep.CountsAfter = map[module.Type]int{}
		rep.Runtime = time.Since(start)
		return rep
	}

	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel() // releases the timer; no goroutine outlives Analyze
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The bitslice, support, words and modmatch stages have inner worker
	// pools, capped at the shared budget. Worker counts are budget knobs,
	// not semantic ones: every stage's result is deterministic regardless
	// of them, so they appear in no stage digest below.
	bitsliceOpt := bitslice.Options{Workers: workers, KeepUnknown: opt.KeepCandidates}
	if len(opt.ExtraLibrary) > 0 {
		bitsliceOpt.Library = append(truth.Library(), opt.ExtraLibrary...)
	}

	// Fingerprint the netlist only when memoization is on; the digest of
	// every stage key starts from it.
	fingerprint := ""
	if opt.StageStore != nil {
		fingerprint = opt.Fingerprint
		if fingerprint == "" {
			fingerprint = nl.Fingerprint()
		}
	}

	stages := []stage{
		// Stage 1: cut enumeration + Boolean matching (Algorithm 1).
		{name: "bitslice",
			digest: func(h *artifact.Hasher) {
				h.Bool(bitsliceOpt.KeepUnknown)
				digestLibrary(h, bitsliceOpt.Library)
			},
			run: func(ctx context.Context, in map[string]*artifact.Artifact) (any, int) {
				o := bitsliceOpt
				o.Cuts.Interrupt = interruptOf(ctx)
				return bitslice.Find(nl, o), 0
			}},
		// Stage 3: common-support analysis (Algorithm 5); independent of
		// the bitslice pipeline.
		{name: "support",
			run: func(ctx context.Context, in map[string]*artifact.Artifact) (any, int) {
				mods := support.Analyze(nl, support.Options{Workers: workers, Interrupt: interruptOf(ctx)})
				return mods, len(mods)
			}},
		// Latch-connection graph shared by the sequential detectors.
		{name: "lcg",
			run: func(ctx context.Context, in map[string]*artifact.Artifact) (any, int) {
				return graph.BuildLCG(nl), 0
			}},
		// Stage 7 (LCG half): counter and shift-register detection
		// (Algorithms 6-7); independent of the combinational stages.
		{name: "counters", deps: []string{"lcg"},
			run: func(ctx context.Context, in map[string]*artifact.Artifact) (any, int) {
				a := in["lcg"]
				if a == nil {
					return []*module.Module(nil), 0 // upstream stage was skipped
				}
				mods := seq.FindCounters(nl, a.Value.(*graph.LCG))
				return mods, len(mods)
			}},
		{name: "shift", deps: []string{"lcg"},
			run: func(ctx context.Context, in map[string]*artifact.Artifact) (any, int) {
				a := in["lcg"]
				if a == nil {
					return []*module.Module(nil), 0
				}
				mods := seq.FindShiftRegisters(nl, a.Value.(*graph.LCG))
				return mods, len(mods)
			}},
		// Stage 2: aggregation (Algorithm 2).
		{name: "aggregate", deps: []string{"bitslice"},
			run: func(ctx context.Context, in map[string]*artifact.Artifact) (any, int) {
				a := in["bitslice"]
				if a == nil {
					return aggregateOut{}, 0
				}
				slices := a.Value.(*bitslice.Result)
				var out aggregateOut
				for _, m := range aggregate.CommonSignal(nl, slices) {
					if m.Type == module.Candidate {
						out.Candidates = append(out.Candidates, m)
						continue
					}
					out.Common = append(out.Common, m)
					if m.Type == module.Mux {
						out.Mux = append(out.Mux, m)
					}
				}
				out.Propagated = aggregate.PropagatedSignal(nl, slices)
				return out, len(out.Common) + len(out.Propagated)
			}},
		// Stage 4: module fusion post-processing (Section II-F). Fusion
		// candidates are the mux and decoder modules.
		{name: "fuse", deps: []string{"aggregate", "support"},
			run: func(ctx context.Context, in map[string]*artifact.Artifact) (any, int) {
				var fusable []*module.Module
				fusable = append(fusable, aggOf(in).Mux...)
				for _, m := range modsOf(in, "support") {
					if m.Type == module.Decoder {
						fusable = append(fusable, m)
					}
				}
				fused := aggregate.Fuse(fusable)
				return fused, len(fused)
			}},
		// Stage 5: word identification and propagation (Algorithm 3).
		{name: "words", deps: []string{"aggregate", "support", "fuse"},
			digest: func(h *artifact.Hasher) { h.Bool(opt.SkipWordProp) },
			run: func(ctx context.Context, in map[string]*artifact.Artifact) (any, int) {
				seeds := words.FromModules(baseMods(in))
				if opt.SkipWordProp {
					return seeds, len(seeds)
				}
				all, _ := words.PropagateAll(nl, seeds, wordRounds, words.Options{Workers: workers, Interrupt: interruptOf(ctx)})
				return all, len(all)
			}},
		// Stage 6: QBF module matching between words (Algorithm 4).
		{name: "modmatch", deps: []string{"words"},
			digest: func(h *artifact.Hasher) { h.Bool(opt.SkipModMatch) },
			run: func(ctx context.Context, in map[string]*artifact.Artifact) (any, int) {
				if opt.SkipModMatch {
					return []*module.Module(nil), 0
				}
				mods := modmatch.Match(ctx, nl, wordsOf(in), modmatch.Options{Workers: workers})
				return mods, len(mods)
			}},
		// Stage 7 (bitslice half): RAM and multibit-register detection
		// (Algorithms 8-9).
		{name: "rams", deps: []string{"bitslice"},
			run: func(ctx context.Context, in map[string]*artifact.Artifact) (any, int) {
				a := in["bitslice"]
				if a == nil {
					return []*module.Module(nil), 0
				}
				mods := seq.FindRAMs(nl, a.Value.(*bitslice.Result))
				return mods, len(mods)
			}},
		{name: "registers", deps: []string{"aggregate"},
			run: func(ctx context.Context, in map[string]*artifact.Artifact) (any, int) {
				mods := seq.FindMultibitRegisters(nl, aggOf(in).Mux)
				return mods, len(mods)
			}},
		// Footnote 15: recover multibit-register bit order by matching the
		// registers against ordered words (word propagation reaches the
		// registers' D-input gates; the driven latches inherit the order).
		// The detection output is immutable once published, so the stage
		// orders fresh copies; its artifact replaces the register list in
		// the merge.
		{name: "order", deps: []string{"words", "registers"},
			run: func(ctx context.Context, in map[string]*artifact.Artifact) (any, int) {
				regs := modsOf(in, "registers")
				if len(regs) == 0 {
					return []*module.Module(nil), 0
				}
				copies := make([]*module.Module, len(regs))
				for i, m := range regs {
					copies[i] = cloneModule(m)
				}
				var ordered [][]netlist.ID
				for _, w := range wordsOf(in) {
					ordered = append(ordered, w.Bits)
				}
				seq.OrderRegisterBits(nl, copies, ordered)
				return copies, 0
			}},
		// Stage 7b: design-specific passes supplied by the analyst. They
		// run sequentially after every built-in stage, matching the
		// serial pipeline's semantics (a pass may inspect the netlist
		// without racing the built-in analyses). A panicking pass fails
		// only this stage; the built-in stages' modules are unaffected.
		// Arbitrary functions have no digest, so the stage is uncacheable
		// whenever passes are present.
		{name: "extra", deps: []string{"modmatch", "counters", "shift", "rams", "order"},
			uncacheable: len(opt.ExtraPasses) > 0,
			run: func(ctx context.Context, in map[string]*artifact.Artifact) (any, int) {
				var extras [][]*module.Module
				n := 0
				for _, pass := range opt.ExtraPasses {
					if ctx.Err() != nil {
						break
					}
					ms := pass(nl)
					extras = append(extras, ms)
					n += len(ms)
				}
				return extras, n
			}},
		// Stage 8: overlap resolution (Algorithm 10). Depends on every
		// stage whose modules it merges; "extra" transitively gates on the
		// rest, so the merge sees all completed outputs. Running it inside
		// the DAG gives it the same timeout/panic handling as the
		// analyses.
		{name: "overlap",
			deps: []string{"aggregate", "support", "fuse", "modmatch",
				"counters", "shift", "rams", "registers", "order", "extra"},
			digest: func(h *artifact.Hasher) {
				h.Int(int64(opt.Overlap.Objective))
				h.Int(int64(opt.Overlap.CoverageTarget))
				h.Bool(opt.Overlap.Sliceable)
				h.Int(int64(opt.Overlap.MinSlices))
				h.Int(opt.Overlap.NodeLimit)
			},
			run: func(ctx context.Context, in map[string]*artifact.Artifact) (any, int) {
				mods := mergeMods(in)
				out := overlapOut{
					All:            mods,
					CoverageBefore: module.CoverageCount(mods),
					CountsBefore:   module.CountByType(mods),
				}
				o := opt.Overlap
				o.Interrupt = interruptOf(ctx)
				res, err := overlap.Resolve(mods, o)
				if err == nil {
					out.Resolved = res.Selected
					out.CoverageAfter = res.Coverage
					out.Optimal = res.Optimal
					out.CountsAfter = module.CountByType(res.Selected)
				} else {
					// A MinModules target no selection was found for:
					// report the unresolved set.
					out.Err = err
					out.CountsAfter = map[module.Type]int{}
				}
				return out, len(out.Resolved)
			}},
	}

	sched := newScheduler(ctx, workers, opt.StageTimeout, start, opt.Progress,
		opt.StageStore, fingerprint)
	timings, arts := sched.run(stages)
	rep.Trace = timings

	// Assemble the report from the stage artifacts. byName is the same
	// shape as a stage's input map, so the merge helpers work on it.
	byName := make(map[string]*artifact.Artifact, len(stages))
	for i, st := range stages {
		if arts[i] != nil {
			byName[st.name] = arts[i]
		}
	}
	rep.Candidates = aggOf(byName).Candidates
	rep.Words = wordsOf(byName)
	if a := byName["overlap"]; a != nil {
		out := a.Value.(overlapOut)
		rep.All = out.All
		rep.Resolved = out.Resolved
		rep.CoverageBefore = out.CoverageBefore
		rep.CoverageAfter = out.CoverageAfter
		rep.CountsBefore = out.CountsBefore
		rep.CountsAfter = out.CountsAfter
		rep.OverlapOptimal = out.Optimal
		rep.OverlapErr = out.Err
	} else {
		// The overlap stage was skipped (run canceled/timed out before it
		// started) or died before merging; still assemble the canonical
		// merge of whatever the completed stages produced so the report
		// lists them.
		mods := mergeMods(byName)
		rep.All = mods
		rep.CoverageBefore = module.CoverageCount(mods)
		rep.CountsBefore = module.CountByType(mods)
	}
	if rep.CountsBefore == nil {
		rep.CountsBefore = map[module.Type]int{}
	}
	if rep.CountsAfter == nil {
		rep.CountsAfter = map[module.Type]int{}
	}
	for _, t := range rep.Trace {
		if t.Status != StageOK {
			rep.Degraded = true
			break
		}
	}

	rep.Runtime = time.Since(start)
	return rep
}
