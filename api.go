// Package netlistre reverse-engineers unstructured gate-level netlists,
// reproducing the algorithm portfolio of Subramanyan et al., "Reverse
// Engineering Digital Circuits Using Structural and Functional Analyses"
// (IEEE TETC 2014; the extended version of the DATE 2013 paper "Reverse
// Engineering Digital Circuits Using Functional Analysis").
//
// Given a flat sea of gates and latches with no module boundaries, Analyze
// infers high-level datapath components — multibit multiplexers, adders,
// subtractors, parity trees, decoders, demultiplexers, population counters,
// counters, shift registers, register files/RAMs, multibit registers and
// QBF-matched word operators — and resolves overlapping inferences with a
// 0-1 ILP so every netlist element is claimed by at most one module.
//
// A minimal session:
//
//	nl := netlistre.NewNetlist("dut")
//	... build or netlistre.ReadVerilog(...) ...
//	rep := netlistre.Analyze(nl, netlistre.Options{})
//	netlistre.WriteReport(os.Stdout, rep)
//
// For large designs, Simplify first (buffer/inverter-pair removal and
// structural hashing) and PartitionByResets to split an SoC into per-core
// sub-netlists (Section V-C of the paper).
//
// # Parallel execution and tracing
//
// Analyze runs the portfolio as a stage DAG on a bounded worker pool:
// the independent analyses (bitslice matching, common-support analysis,
// the latch-connection-graph detectors) execute concurrently and the
// downstream stages are gated on their declared inputs. Options.Workers
// bounds the pool (0 = GOMAXPROCS); results are merged in a canonical
// order so the report is bit-identical for any worker count, and
// Workers: 1 reproduces the serial pipeline exactly.
//
// Every run records per-stage wall-clock timings in Report.Trace (one
// StageTiming per stage, in pipeline order), rendered as a stage table
// by WriteReport and by the revan -trace flag. For long runs,
// Options.Progress receives a StageEvent at each stage start and finish.
//
// # Budgets, cancellation and degraded reports
//
// AnalyzeContext accepts a context for caller-driven cancellation, and
// Options.Timeout / Options.StageTimeout bound the whole run and each
// pipeline stage respectively. Cancellation is cooperative: the solver
// hot loops (CDCL search, QBF CEGAR refinement, ILP branch-and-bound,
// cut enumeration, word propagation, BDD class verification) poll the
// context and stop early, keeping whatever they found. A run that is
// canceled, times out, or loses a stage to a panic never returns an
// error — it returns a well-formed *degraded* report: Report.Degraded is
// set, each affected stage carries a non-OK StageTiming.Status
// (TimedOut, Canceled, or Failed with the panic text), downstream stages
// still run against the partial intermediate state, and the merged
// module list remains deterministic. Malformed inputs (dangling fanins,
// combinational cycles, latches with an unset D) are caught up front by
// Netlist.Validate and reported via Report.ValidationErr without running
// any analysis. Runs without a budget take a zero-overhead path: no
// polling hooks are installed and the report is byte-identical to an
// unbudgeted Analyze. The revan CLI exposes the run budget as -timeout
// and exits with code 3 when the report is degraded.
//
// # Incremental analysis: the stage store
//
// Options.StageStore enables per-stage memoization. Every pipeline stage
// is a pure function of its declared inputs, and its result is wrapped in
// a typed artifact whose digest covers the full input closure: the
// netlist's canonical Fingerprint, the stage name, the stage-relevant
// Options fields, and the digests of the upstream artifacts. Before a
// stage body runs, the scheduler consults the store; a hit replays the
// finished artifact without executing anything, recorded as provenance
// StageCached in the trace (cold stages are StageRan, stages whose body
// never started are StageSkipped). Population is single-flight, so
// concurrent analyses of the same content compute each stage once.
//
// Options digesting is selective: only fields that can change a stage's
// result participate — KeepCandidates and ExtraLibrary (bitslice),
// SkipWordProp (words), SkipModMatch (modmatch) and the Overlap fields
// (overlap). Every other stage parameter is a constant of its package, so
// it needs no digest. Workers, Timeout, StageTimeout, Progress and the
// other callbacks are excluded — results are worker-count- and
// budget-invariant — so a re-run with a different parallelism or budget
// still hits. ExtraPasses are arbitrary functions and cannot be digested;
// when present, the extra stage and everything downstream of it always
// executes.
//
// The cache invariants: (1) warm, cold, and any-worker-count runs of the
// same inputs produce byte-identical reports (only Trace provenance and
// wall-clock fields differ); (2) only complete artifacts of complete
// inputs are published — a stage interrupted by a timeout or
// cancellation, or one that consumed a partial upstream output, keeps its
// result out of the store; (3) with StageStore nil nothing is digested
// and the zero-overhead path is unchanged. Invariant (2) is what makes
// degraded runs resumable: re-running the same analysis after a timeout
// replays every stage that completed and re-executes only the interrupted
// ones. The revand service keeps one process-wide store for exactly this
// (resubmitting a timed-out job resumes it), and revan exposes the
// mechanism as -stage-cache.
package netlistre

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"netlistre/internal/artifact"
	"netlistre/internal/core"
	"netlistre/internal/module"
	"netlistre/internal/netlist"
	"netlistre/internal/overlap"
	"netlistre/internal/partition"
	"netlistre/internal/rtl"
	"netlistre/internal/simplify"
)

// Netlist is the gate-level circuit representation. See the methods on
// netlist.Netlist for the builder API (AddInput, AddGate, AddLatch,
// MarkOutput, ...).
type Netlist = netlist.Netlist

// ID identifies a netlist node.
type ID = netlist.ID

// NilID is the invalid node ID, returned by lookups that find nothing
// (e.g. Netlist.FindByName).
const NilID = netlist.Nil

// MaxLutInputs is the largest LUT arity a native k-input truth-table cell
// can carry (its packed mask is one uint64).
const MaxLutInputs = netlist.MaxLutInputs

// Kind enumerates netlist primitives (And, Or, Not, Latch, ...).
type Kind = netlist.Kind

// Module is one inferred high-level component.
type Module = module.Module

// ModuleType classifies inferred modules (Adder, Mux, Counter, RAM, ...).
type ModuleType = module.Type

// Report is the outcome of analyzing one netlist.
type Report = core.Report

// Options configures the analysis portfolio. The zero value runs every
// algorithm, but resolves overlap with the basic ILP: the paper's
// per-slice formulation (Section IV-B), which revan, revand, revcheck and
// the experiments select, needs Overlap.Sliceable. Options.Workers bounds
// the stage scheduler's worker pool; Options.Progress observes stage
// start/finish events.
type Options = core.Options

// StageTiming is one Report.Trace entry: a pipeline stage's start
// offset, duration and produced item count.
type StageTiming = core.StageTiming

// StageEvent is delivered to Options.Progress when a pipeline stage
// starts (Done=false) and finishes (Done=true).
type StageEvent = core.StageEvent

// StageStatus classifies how a pipeline stage ended (see StageTiming).
type StageStatus = core.StageStatus

// Stage end statuses. Anything but StageOK marks the report Degraded.
const (
	StageOK       = core.StageOK
	StageTimedOut = core.StageTimedOut
	StageCanceled = core.StageCanceled
	StageFailed   = core.StageFailed
)

// StageProvenance records how a stage's output came to be (see
// StageTiming.Provenance and the package comment, "Incremental analysis:
// the stage store").
type StageProvenance = core.StageProvenance

// Stage provenances: the body executed, the artifact was replayed from
// the stage store, or the body never started because the run was over.
const (
	StageRan     = core.StageRan
	StageCached  = core.StageCached
	StageSkipped = core.StageSkipped
)

// StageStore is a bounded, content-addressed, single-flight cache of
// per-stage analysis artifacts; assign one to Options.StageStore to make
// analyses incremental and degraded runs resumable. Safe for concurrent
// use by any number of analyses.
type StageStore = artifact.Store

// StageCacheStats is a point-in-time snapshot of a StageStore's counters.
type StageCacheStats = artifact.Stats

// NewStageStore returns a stage store bounded to maxEntries artifacts
// (<= 0 selects a default of 1024).
func NewStageStore(maxEntries int) *StageStore { return artifact.NewStore(maxEntries) }

// Re-exported netlist primitives.
const (
	And   = netlist.And
	Or    = netlist.Or
	Nand  = netlist.Nand
	Nor   = netlist.Nor
	Xor   = netlist.Xor
	Xnor  = netlist.Xnor
	Not   = netlist.Not
	Buf   = netlist.Buf
	Latch = netlist.Latch
)

// Re-exported module types for report inspection.
const (
	TypeMux              = module.Mux
	TypeDecoder          = module.Decoder
	TypeDemux            = module.Demux
	TypePopCount         = module.PopCount
	TypeAdder            = module.Adder
	TypeSubtractor       = module.Subtractor
	TypeParityTree       = module.ParityTree
	TypeCounter          = module.Counter
	TypeShiftRegister    = module.ShiftRegister
	TypeRAM              = module.RAM
	TypeMultibitRegister = module.MultibitRegister
	TypeWordOp           = module.WordOp
	TypeGating           = module.Gating
	TypeFused            = module.Fused
	TypeCandidate        = module.Candidate
)

// NewNetlist returns an empty netlist with the given name.
func NewNetlist(name string) *Netlist { return netlist.New(name) }

// ReadVerilog parses a structural Verilog netlist (the gate-level subset
// documented in the internal/netlist package).
func ReadVerilog(r io.Reader) (*Netlist, error) { return netlist.ReadVerilog(r) }

// ReadBLIF parses a netlist in the Berkeley Logic Interchange Format
// subset (.model/.inputs/.outputs/.names/.latch). Covers the writer
// marked as LUTs (`.names ... # lut`) rebuild as native k-input cells;
// everything else decomposes into primitive gates.
func ReadBLIF(r io.Reader) (*Netlist, error) { return netlist.ReadBLIF(r) }

// BLIFOptions configures ReadBLIFOpts. The Luts field keeps every
// .names cover table (up to MaxLutInputs inputs) as a native Lut node —
// the natural reading for foreign LUT-mapped FPGA BLIF that lacks the
// writer's per-cover markers.
type BLIFOptions = netlist.BLIFOptions

// ReadBLIFOpts is ReadBLIF with explicit options.
func ReadBLIFOpts(r io.Reader, opt BLIFOptions) (*Netlist, error) {
	return netlist.ReadBLIFOpts(r, opt)
}

// Analyze runs the full reverse-engineering portfolio.
func Analyze(nl *Netlist, opt Options) *Report { return core.Analyze(nl, opt) }

// AnalyzeContext runs the portfolio under a context. Cancellation and the
// Options.Timeout / Options.StageTimeout budgets are cooperative and
// never produce an error: the result is a well-formed report with
// Report.Degraded set and the affected stages marked in Report.Trace
// (see the package comment, "Budgets, cancellation and degraded
// reports").
func AnalyzeContext(ctx context.Context, nl *Netlist, opt Options) *Report {
	return core.AnalyzeContext(ctx, nl, opt)
}

// RTLResult is the outcome of lowering a report to word-level Verilog
// (see EmitRTL).
type RTLResult = rtl.EmitResult

// RTLStats summarizes what one RTL emission lowered.
type RTLStats = rtl.EmitStats

// RTLEquiv is the machine-readable verdict of the RTL round-trip
// equivalence check (see CheckRTL).
type RTLEquiv = rtl.EquivResult

// EmitRTL lowers an analysis report plus its netlist into word-level
// Verilog: resolved modules become reference-library template instances
// or always blocks, recovered words become vector wires, and everything
// the analysis left unresolved passes through as residual structural
// logic, so the output is always a complete design. Emission is
// deterministic: byte-identical across worker counts and across
// Verilog/BLIF serializations of the same design. A nil report emits a
// pure structural passthrough.
func EmitRTL(nl *Netlist, rep *Report) (*RTLResult, error) { return rtl.Emit(nl, rep) }

// CheckRTL re-elaborates an emission and verifies it against the
// original netlist — by fingerprint when the emission was pure
// passthrough, by bit-parallel simulation plus exhaustive small-cone
// truth tables otherwise. An inequivalent design is reported in the
// result, not as an error.
func CheckRTL(nl *Netlist, er *RTLResult) (*RTLEquiv, error) { return rtl.Check(nl, er) }

// DecompileRTL emits RTL for the report and self-checks it in one call.
func DecompileRTL(nl *Netlist, rep *Report) (*RTLResult, *RTLEquiv, error) {
	return rtl.Decompile(nl, rep)
}

// NetlistDiff is the outcome of structurally and functionally aligning a
// suspect netlist revision against a golden one (see DiffNetlists).
type NetlistDiff = netlist.Diff

// RetypedPair is one golden/suspect node pair whose position matched but
// whose function changed (see NetlistDiff.Retyped).
type RetypedPair = netlist.RetypedPair

// DiffNetlists aligns suspect against golden with a multi-pass matcher —
// boundary anchoring, forward/backward structural signatures, dormant
// bit-parallel simulation, trace-seeded Weisfeiler-Leman refinement, and
// role inference across splice frontiers — and returns the unmatched
// remainder classified as added, removed, and retyped nodes plus boundary
// (port) changes. On a trojaned revision of a clean design the Added set
// is the injected gate set; NetlistDiff.SuspectSet bundles it with the
// suspect halves of retyped pairs. Both netlists should be Validated;
// neither is mutated.
func DiffNetlists(golden, suspect *Netlist) *NetlistDiff {
	return netlist.DiffNetlists(golden, suspect)
}

// ConeDirection selects which way BoundedCone walks (ConeFanin against
// signal flow, ConeFanout with it).
type ConeDirection = netlist.ConeDirection

// Cone traversal directions for BoundedCone.
const (
	ConeFanin  = netlist.Fanin
	ConeFanout = netlist.Fanout
)

// ConeNode is one visited node of a bounded cone traversal.
type ConeNode = netlist.ConeNode

// BoundedConeResult is the outcome of a bounded cone query: the visited
// nodes in deterministic BFS order plus explicit truncation flags. Query
// with Netlist.BoundedCone(root, dir, maxDepth, maxNodes); bounds <= 0 are
// unbounded. The revand session API exposes this as the per-session cone
// endpoint.
type BoundedConeResult = netlist.BoundedConeResult

// SimplifyResult pairs a simplified netlist with its node mapping.
// NodeMap is a slice indexed by original node ID: element id is the
// simplified node that computes node id's value, or Nil when simplification
// swept that node's image away as dead logic.
type SimplifyResult = simplify.Result

// Simplify removes buffers, delay chains and paired inverters and merges
// structurally equivalent gates (the paper's BigSoC pre-pass, Section
// V-C.1).
func Simplify(nl *Netlist) SimplifyResult { return simplify.Run(nl) }

// CorePartition is one reset domain of a partitioned SoC.
type CorePartition struct {
	// Name is the reset input's name.
	Name string
	// Netlist is the extracted standalone sub-netlist.
	Netlist *Netlist
	// Latches and Elements count the partition's contents in the parent.
	Latches  int
	Elements int
}

// PartitionSummary reports whole-design partition accounting (Table 5).
type PartitionSummary struct {
	Cores []CorePartition
	// MultiOwned counts gates placed in more than one partition.
	MultiOwned int
	// Unowned counts gates in no partition (inter-core interconnect).
	Unowned int
}

// PartitionByResets splits nl into per-core sub-netlists anchored at the
// named reset inputs (Section V-C.2).
func PartitionByResets(nl *Netlist, resetNames []string) (PartitionSummary, error) {
	var resets []ID
	for _, name := range resetNames {
		id := nl.FindByName(name)
		if id == netlist.Nil {
			return PartitionSummary{}, fmt.Errorf("netlistre: no input named %q", name)
		}
		resets = append(resets, id)
	}
	s := partition.ByResets(nl, resets)
	out := PartitionSummary{MultiOwned: s.MultiOwned, Unowned: s.Unowned}
	for _, p := range s.Partitions {
		sub, _ := partition.Extract(nl, p)
		out.Cores = append(out.Cores, CorePartition{
			Name:     p.Name,
			Netlist:  sub,
			Latches:  len(p.Latches),
			Elements: len(p.Elements),
		})
	}
	return out, nil
}

// ResolveObjective selects the overlap-resolution objective.
type ResolveObjective = overlap.Objective

// Overlap-resolution objectives (Section IV).
const (
	MaxCoverage = overlap.MaxCoverage
	MinModules  = overlap.MinModules
)

// CoverageTargetElements converts a coverage fraction into the element
// floor Options.Overlap.CoverageTarget takes under MinModules: that
// fraction of nl's gates and latches, rounded down. revan -target and
// revand's coverage_target both lower through it.
func CoverageTargetElements(nl *Netlist, fraction float64) int {
	stats := nl.Stats()
	return int(fraction * float64(stats.Gates+stats.Latches))
}

// errWriter wraps a writer so a sequence of formatted writes can be
// checked once at the end: after the first failure every later write is a
// no-op and the first error is kept.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...interface{}) {
	if ew.err != nil {
		return
	}
	_, ew.err = fmt.Fprintf(ew.w, format, args...)
}

// degradedStages summarizes the non-OK trace entries for the report
// header, e.g. "words timed-out, modmatch canceled".
func degradedStages(rep *Report) string {
	var parts []string
	for _, st := range rep.Trace {
		if st.Status != StageOK {
			parts = append(parts, st.Name+" "+st.Status.String())
		}
	}
	return strings.Join(parts, ", ")
}

// firstLine truncates multi-line error text (panic stacks) for one-line
// rendering.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// WriteReport renders a human-readable module and coverage summary.
func WriteReport(w io.Writer, rep *Report) error {
	ew := &errWriter{w: w}
	stats := rep.Netlist.Stats()
	ew.printf("design %s: %d inputs, %d outputs, %d gates, %d latches\n",
		rep.Netlist.Name, stats.Inputs, stats.Outputs, stats.Gates, stats.Latches)
	if rep.ValidationErr != nil {
		ew.printf("input validation FAILED:\n")
		for _, line := range strings.Split(rep.ValidationErr.Error(), "\n") {
			ew.printf("  %s\n", line)
		}
	} else if rep.Degraded {
		ew.printf("DEGRADED report (%s): results are partial\n", degradedStages(rep))
	}
	ew.printf("inferred %d modules (%d after overlap resolution)\n",
		len(rep.All), len(rep.Resolved))
	ew.printf("coverage: %.1f%% before resolution, %.1f%% after\n",
		100*rep.CoverageFractionBefore(), 100*rep.CoverageFraction())
	ew.printf("analysis time: %v\n", rep.Runtime)
	if rep.OverlapErr != nil {
		ew.printf("overlap resolution FAILED: %v\n", rep.OverlapErr)
	}
	ew.printf("\n")

	type row struct {
		ty            ModuleType
		before, after int
	}
	var rows []row
	for ty, n := range rep.CountsBefore {
		rows = append(rows, row{ty, n, rep.CountsAfter[ty]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ty < rows[j].ty })
	ew.printf("%-20s %8s %8s\n", "module type", "found", "selected")
	for _, r := range rows {
		ew.printf("%-20s %8d %8d\n", r.ty, r.before, r.after)
	}

	// Largest resolved modules.
	sel := largestFirst(rep.Resolved)
	n := len(sel)
	if n > 12 {
		n = 12
	}
	if n > 0 {
		ew.printf("\nlargest resolved modules:\n")
		for _, m := range sel[:n] {
			ew.printf("  %-28s %5d elements\n", m.Name, m.Size())
		}
	}
	if len(rep.Trace) > 0 {
		ew.printf("\n")
		if ew.err == nil {
			ew.err = WriteTrace(w, rep)
		}
	}
	return ew.err
}

// largestFirst returns a copy of the resolved modules mods ordered by
// size, descending, then by name, then by first element ID. Resolved
// modules are disjoint, so the order is total: a report does not depend on
// the order overlap resolution returned its selection in.
func largestFirst(mods []*Module) []*Module {
	first := func(m *Module) netlist.ID {
		if len(m.Elements) == 0 {
			return -1
		}
		return m.Elements[0]
	}
	out := slices.Clone(mods)
	slices.SortFunc(out, func(a, b *Module) int {
		return cmp.Or(
			cmp.Compare(b.Size(), a.Size()),
			strings.Compare(a.Name, b.Name),
			cmp.Compare(first(a), first(b)))
	})
	return out
}

// WriteTrace renders the per-stage timing table of Report.Trace. The
// modules column is right-aligned under its header, and every row carries
// the stage's provenance (ran, cached, or skipped) so warm-cache and
// degraded runs are distinguishable at a glance; stages that did not
// complete normally additionally carry a trailing status column.
func WriteTrace(w io.Writer, rep *Report) error {
	ew := &errWriter{w: w}
	ew.printf("%-12s %12s %12s %8s  %s\n", "stage", "start", "duration", "modules", "origin")
	for _, st := range rep.Trace {
		if st.Status == StageOK {
			ew.printf("%-12s %12v %12v %8d  %s\n",
				st.Name, st.Start, st.Duration, st.Modules, st.Provenance)
			continue
		}
		detail := ""
		if st.Err != "" {
			detail = ": " + firstLine(st.Err)
		}
		ew.printf("%-12s %12v %12v %8d  %-7s  [%s%s]\n",
			st.Name, st.Start, st.Duration, st.Modules, st.Provenance, st.Status, detail)
	}
	return ew.err
}
