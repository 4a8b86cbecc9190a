// Package server implements revand, the netlist analysis service: an
// HTTP/JSON front end over the AnalyzeContext portfolio with a bounded job
// queue, a content-addressed report cache, and Prometheus-text metrics.
//
// Endpoints:
//
//	POST /v1/analyze      synchronous analysis (small netlists)
//	POST /v1/jobs         enqueue an asynchronous analysis
//	GET  /v1/jobs/{id}    job status; carries the report when finished
//	GET  /v1/jobs/{id}/rtl  decompiled word-level Verilog for a done job
//	GET  /v1/articles     the built-in netlists the service can analyze
//	GET  /healthz         liveness/readiness (503 while draining)
//	GET  /metrics         Prometheus text exposition
//
// Both analysis endpoints accept the same request body: exactly one
// netlist source (a built-in article name, structural Verilog text, or
// BLIF text) plus per-request options mirroring the revan CLI flags. The
// response body of a successful analysis is exactly the JSON report
// WriteJSONReport produces — the service and the CLI share one wire
// format, pinned by the root package's round-trip golden test.
//
// Reports are memoized in a report cache — an artifact.Store of its own,
// keyed by a digest of Netlist.Fingerprint() plus the canonical options
// string — so re-submitting the same circuit, even serialized differently,
// is a cache hit served without running the portfolio, and concurrent
// identical requests share one analysis. X-Cache on the response
// (HIT/MISS) and the /metrics counters expose the cache behaviour.
//
// Below the report cache sits a process-wide *stage store* (see
// Options.StageStore in the root package): every pipeline stage's result
// is memoized content-addressed across requests, so a report-cache miss
// that shares work with any earlier analysis — the same netlist with
// different options, or the resubmission of a job that timed out — only
// executes the stages whose inputs actually changed; the rest replay with
// "cached" provenance in the report trace. The
// revand_stagecache_{hits,misses,evictions}_total counters and
// revand_stagecache_entries gauge expose it on /metrics.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"netlistre"
	"netlistre/internal/artifact"
)

// Config sizes the service. The zero value of any field selects the
// default noted on it.
type Config struct {
	// QueueWorkers is the number of concurrent analysis workers draining
	// the job queue (default GOMAXPROCS, capped at 4: each analysis is
	// itself internally parallel).
	QueueWorkers int
	// QueueDepth bounds the number of queued-but-not-started jobs
	// (default 64). A full queue rejects submissions with 503.
	QueueDepth int
	// CacheEntries bounds the report cache (default 256 entries; negative
	// disables caching). The report cache is its own store, separate from
	// the stage store, so cold uploads — each of which adds one entry per
	// stage to the stage store — cannot evict hot reports.
	CacheEntries int
	// StageCacheEntries bounds the process-wide stage store memoizing
	// per-stage analysis artifacts across requests (default 512 entries;
	// negative disables it). The store is what makes re-analysis of an
	// unchanged netlist incremental and resubmitted degraded jobs
	// resumable: completed stages are replayed, only interrupted ones
	// re-execute.
	StageCacheEntries int
	// MaxRequestBytes bounds request bodies (default 32 MiB — netlist
	// uploads are text).
	MaxRequestBytes int64
	// DefaultTimeout is the per-analysis budget applied when a request
	// does not set one (default 0 = unbounded).
	DefaultTimeout time.Duration
	// MaxSyncElements rejects netlists larger than this (gates+latches)
	// on the synchronous endpoint, steering them to /v1/jobs
	// (default 20000; negative disables the gate).
	MaxSyncElements int
	// SessionTTL is how long an idle exploration session stays alive
	// (default 15 minutes). Expiry is lazy — checked on access — so no
	// background goroutine runs.
	SessionTTL time.Duration
	// MaxSessions bounds the session store; the least recently used
	// session is evicted past the cap (default 64; negative means
	// unbounded).
	MaxSessions int
}

func (c Config) withDefaults() Config {
	if c.QueueWorkers == 0 {
		c.QueueWorkers = runtime.GOMAXPROCS(0)
		if c.QueueWorkers > 4 {
			c.QueueWorkers = 4
		}
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.StageCacheEntries == 0 {
		c.StageCacheEntries = 512
	}
	if c.MaxRequestBytes == 0 {
		c.MaxRequestBytes = 32 << 20
	}
	if c.MaxSyncElements == 0 {
		c.MaxSyncElements = 20000
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	} else if c.MaxSessions < 0 {
		c.MaxSessions = 0 // sessionStore treats 0 as unbounded
	}
	return c
}

// Server is the revand HTTP service. Create with New, serve it as an
// http.Handler, and call Shutdown to drain the job queue.
type Server struct {
	cfg      Config
	cache    *artifact.Store       // rendered reports; nil when CacheEntries < 0
	stages   *netlistre.StageStore // nil when StageCacheEntries < 0
	rtl      *artifact.Store       // decompiled-RTL cache, keyed by fingerprint+options
	metrics  *Metrics
	queue    *Queue
	sessions *sessionStore
	mux      *http.ServeMux
	start    time.Time
}

// New builds a Server and starts its queue workers.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg.withDefaults(),
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
		start:   time.Now(),
	}
	if s.cfg.CacheEntries > 0 {
		s.cache = artifact.NewStore(s.cfg.CacheEntries)
	}
	if s.cfg.StageCacheEntries > 0 {
		s.stages = netlistre.NewStageStore(s.cfg.StageCacheEntries)
	}
	s.rtl = artifact.NewStore(rtlCacheEntries)
	s.queue = NewQueue(s.cfg.QueueWorkers, s.cfg.QueueDepth, s.runJob)
	s.sessions = newSessionStore(s.cfg.SessionTTL, s.cfg.MaxSessions, s.metrics)

	s.route("POST /v1/analyze", "/v1/analyze", s.handleAnalyze)
	s.route("POST /v1/jobs", "/v1/jobs", s.handleSubmitJob)
	s.route("GET /v1/jobs/{id}", "/v1/jobs/{id}", s.handleGetJob)
	s.route("GET /v1/jobs/{id}/rtl", "/v1/jobs/{id}/rtl", s.handleJobRTL)
	s.route("GET /v1/articles", "/v1/articles", s.handleArticles)
	s.route("POST /v1/sessions", "/v1/sessions", s.handleCreateSession)
	s.route("GET /v1/sessions/{id}", "/v1/sessions/{id}", s.handleGetSession)
	s.route("DELETE /v1/sessions/{id}", "/v1/sessions/{id}", s.handleDeleteSession)
	s.route("GET /v1/sessions/{id}/blocks", "/v1/sessions/{id}/blocks", s.handleSessionBlocks)
	s.route("GET /v1/sessions/{id}/blocks/{idx}", "/v1/sessions/{id}/blocks/{idx}", s.handleSessionBlock)
	s.route("GET /v1/sessions/{id}/words", "/v1/sessions/{id}/words", s.handleSessionWords)
	s.route("GET /v1/sessions/{id}/ports", "/v1/sessions/{id}/ports", s.handleSessionPorts)
	s.route("GET /v1/sessions/{id}/cone", "/v1/sessions/{id}/cone", s.handleSessionCone)
	s.route("POST /v1/sessions/{id}/rerun", "/v1/sessions/{id}/rerun", s.handleSessionRerun)
	s.route("POST /v1/sessions/{id}/revisions/{name}", "/v1/sessions/{id}/revisions/{name}", s.handleAddRevision)
	s.route("POST /v1/sessions/{id}/diff", "/v1/sessions/{id}/diff", s.handleSessionDiff)
	s.route("GET /healthz", "/healthz", s.handleHealthz)
	s.route("GET /metrics", "/metrics", s.handleMetrics)
	return s
}

// route registers a handler under the Go 1.22 method+pattern syntax and
// wraps it with per-route request counting.
func (s *Server) route(pattern, label string, h http.HandlerFunc) {
	s.mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &codeWriter{ResponseWriter: w}
		h(cw, r)
		code := cw.code
		if code == 0 {
			code = http.StatusOK
		}
		s.metrics.HTTPRequest(label, code)
	}))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the job queue: intake stops (new submissions get 503),
// queued and running jobs run to completion, and their reports remain
// queryable until the process exits. If ctx expires first the in-flight
// analyses are canceled cooperatively and finish as degraded reports.
// Call http.Server.Shutdown before this so no new requests race intake.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.queue.Drain(ctx)
}

// codeWriter captures the response status for metrics.
type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// AnalyzeRequest is the body of POST /v1/analyze and POST /v1/jobs.
// Exactly one of Article, Verilog, or BLIF must be set.
type AnalyzeRequest struct {
	// Article names a built-in netlist (see GET /v1/articles).
	Article string `json:"article,omitempty"`
	// Verilog holds a structural Verilog netlist as text.
	Verilog string `json:"verilog,omitempty"`
	// BLIF holds a BLIF netlist as text.
	BLIF string `json:"blif,omitempty"`
	// BLIFLuts reads every BLIF cover table as a native k-input LUT cell,
	// for foreign LUT-mapped FPGA BLIF without the writer's per-cover
	// '# lut' markers. It changes the parsed netlist (and therefore its
	// fingerprint), so cached reports are keyed correctly for free.
	BLIFLuts bool           `json:"blif_luts,omitempty"`
	Options  RequestOptions `json:"options,omitempty"`
}

// RequestOptions mirrors the revan CLI's analysis flags. The zero value
// reproduces `revan -json` defaults (sliceable ILP, max-coverage
// objective, every algorithm enabled).
type RequestOptions struct {
	// Workers bounds the analysis worker pool (0 = GOMAXPROCS). Reports
	// are identical for any worker count, so Workers is excluded from the
	// cache key.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds the whole analysis in milliseconds (0 = server
	// default). A timed-out run yields a degraded report, not an error.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// StageTimeoutMS bounds each pipeline stage in milliseconds.
	StageTimeoutMS int64 `json:"stage_timeout_ms,omitempty"`
	SkipModMatch   bool  `json:"skip_modmatch,omitempty"`
	SkipWordProp   bool  `json:"skip_wordprop,omitempty"`
	KeepCandidates bool  `json:"keep_candidates,omitempty"`
	// Objective selects overlap resolution: "max" (coverage, default) or
	// "min" (modules, with CoverageTarget).
	Objective string `json:"objective,omitempty"`
	// CoverageTarget is the coverage fraction for Objective "min"
	// (default 0.5, like revan -target).
	CoverageTarget float64 `json:"coverage_target,omitempty"`
	// Sliceable selects the sliceable ILP formulation (default true,
	// like revan without -basic-ilp).
	Sliceable *bool `json:"sliceable,omitempty"`
	// IncludeElements renders the report with per-module element and
	// slice ID lists, so a client can map every module back onto netlist
	// nodes. Default reports omit them and stay byte-identical to earlier
	// releases.
	IncludeElements bool `json:"include_elements,omitempty"`
}

func (o RequestOptions) validate() error {
	switch o.Objective {
	case "", "max", "min":
	default:
		return fmt.Errorf("options.objective must be \"max\" or \"min\", got %q", o.Objective)
	}
	if o.TimeoutMS < 0 || o.StageTimeoutMS < 0 || o.Workers < 0 {
		return errors.New("options.workers, timeout_ms and stage_timeout_ms must be >= 0")
	}
	if o.CoverageTarget < 0 || o.CoverageTarget > 1 {
		return errors.New("options.coverage_target must be in [0, 1]")
	}
	return nil
}

// toOptions lowers the wire options onto core Options for nl, applying
// the same derivations as the revan CLI (coverage target fraction ->
// element count).
func (o RequestOptions) toOptions(nl *netlistre.Netlist, defaultTimeout time.Duration) netlistre.Options {
	opt := netlistre.Options{
		Workers:        o.Workers,
		Timeout:        time.Duration(o.TimeoutMS) * time.Millisecond,
		StageTimeout:   time.Duration(o.StageTimeoutMS) * time.Millisecond,
		SkipModMatch:   o.SkipModMatch,
		SkipWordProp:   o.SkipWordProp,
		KeepCandidates: o.KeepCandidates,
	}
	if opt.Timeout == 0 {
		opt.Timeout = defaultTimeout
	}
	opt.Overlap.Sliceable = o.Sliceable == nil || *o.Sliceable
	if o.Objective == "min" {
		opt.Overlap.Objective = netlistre.MinModules
		target := o.CoverageTarget
		if target == 0 {
			target = 0.5
		}
		stats := nl.Stats()
		opt.Overlap.CoverageTarget = int(target * float64(stats.Gates+stats.Latches))
	}
	return opt
}

// cacheKey is the options half of the report-cache key: every field that
// can change the report, canonically rendered. Workers is deliberately
// absent (reports are worker-count-invariant by the scheduler's
// determinism guarantee).
func (o RequestOptions) cacheKey(fingerprint string, defaultTimeout time.Duration) string {
	timeout := time.Duration(o.TimeoutMS) * time.Millisecond
	if timeout == 0 {
		timeout = defaultTimeout
	}
	sliceable := o.Sliceable == nil || *o.Sliceable
	objective := o.Objective
	if objective == "" {
		objective = "max"
	}
	target := o.CoverageTarget
	if objective == "min" && target == 0 {
		target = 0.5
	}
	return fmt.Sprintf("%s|to=%s sto=%dms smm=%t swp=%t kc=%t obj=%s ct=%g sl=%t ie=%t",
		fingerprint, timeout, o.StageTimeoutMS, o.SkipModMatch, o.SkipWordProp,
		o.KeepCandidates, objective, target, sliceable, o.IncludeElements)
}

// builtinArticle resolves a built-in netlist name, including the large
// case-study articles revan accepts.
func builtinArticle(name string) (*netlistre.Netlist, error) {
	switch name {
	case "bigsoc":
		return netlistre.BigSoC(), nil
	case "evoter-trojan":
		return netlistre.EVoterTrojaned(), nil
	case "oc8051-trojan":
		return netlistre.OC8051Trojaned(), nil
	default:
		return netlistre.TestArticle(name)
	}
}

// buildNetlist materializes the request's netlist source.
func buildNetlist(req *AnalyzeRequest) (*netlistre.Netlist, error) {
	sources := 0
	for _, set := range []bool{req.Article != "", req.Verilog != "", req.BLIF != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, errors.New("exactly one of article, verilog, or blif is required")
	}
	switch {
	case req.Article != "":
		return builtinArticle(req.Article)
	case req.Verilog != "":
		return netlistre.ReadVerilog(strings.NewReader(req.Verilog))
	default:
		return netlistre.ReadBLIFOpts(strings.NewReader(req.BLIF),
			netlistre.BLIFOptions{Luts: req.BLIFLuts})
	}
}

// apiError is the JSON error body for non-2xx responses.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client disconnects are not actionable
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// parsedRequest is one decoded, validated analysis request.
type parsedRequest struct {
	nl          *netlistre.Netlist
	fingerprint string
	opt         netlistre.Options
	key         string
	ro          RequestOptions
}

// decodeRequest parses and validates an analysis request body, returning
// the netlist, its fingerprint, the lowered options, and the cache key.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*parsedRequest, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req AnalyzeRequest
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		return nil, false
	}
	if err := req.Options.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	nl, err := buildNetlist(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "netlist: %v", err)
		return nil, false
	}
	fp := nl.Fingerprint()
	return &parsedRequest{
		nl:          nl,
		fingerprint: fp,
		opt:         req.Options.toOptions(nl, s.cfg.DefaultTimeout),
		key:         req.Options.cacheKey(fp, s.cfg.DefaultTimeout),
		ro:          req.Options,
	}, true
}

// analyze runs one analysis through the report cache: a hit returns the
// stored bytes; a miss runs the portfolio and stores the rendered report
// unless it is degraded. Concurrent identical requests share one run (the
// store is single-flight). A degraded report is never cached, but its
// completed stages live on in the stage store, so resubmitting the same
// request resumes the analysis instead of starting over.
func (s *Server) analyze(ctx context.Context, source string, pr *parsedRequest) (report []byte, cacheHit, degraded bool, err error) {
	if s.cache != nil {
		h := artifact.NewHasher("netlistre-report-v1")
		h.Str(pr.key)
		art, hit, waitErr := s.cache.Do(ctx, h.Sum(), func() (*artifact.Artifact, bool) {
			report, degraded, err = s.runAnalysis(ctx, source, pr)
			return &artifact.Artifact{Stage: "report", Value: report, Size: int64(len(report))},
				err == nil && !degraded
		})
		if waitErr == nil {
			if hit {
				return art.Value.([]byte), true, false, nil
			}
			return report, false, degraded, err
		}
		// ctx expired while another request was computing this report; run
		// it here, where the expired context yields a degraded report just
		// as it would have without the cache.
	}
	report, degraded, err = s.runAnalysis(ctx, source, pr)
	return report, false, degraded, err
}

// runAnalysis runs the portfolio — stage-incrementally, through the
// process-wide stage store — feeds the stage histograms, and renders the
// report.
func (s *Server) runAnalysis(ctx context.Context, source string, pr *parsedRequest) (report []byte, degraded bool, err error) {
	opt := pr.opt
	if s.stages != nil {
		opt.StageStore = s.stages
		opt.Fingerprint = pr.fingerprint
	}
	rep := netlistre.AnalyzeContext(ctx, pr.nl, opt)
	s.metrics.AnalysisDone(source, rep.Trace)
	var buf bytes.Buffer
	if pr.ro.IncludeElements {
		err = netlistre.WriteJSONReportElements(&buf, rep)
	} else {
		err = netlistre.WriteJSONReport(&buf, rep)
	}
	if err != nil {
		return nil, false, err
	}
	return buf.Bytes(), rep.Degraded, nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	pr, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	if s.cfg.MaxSyncElements > 0 {
		stats := pr.nl.Stats()
		if n := stats.Gates + stats.Latches; n > s.cfg.MaxSyncElements {
			writeError(w, http.StatusRequestEntityTooLarge,
				"netlist has %d elements (sync limit %d); submit it to POST /v1/jobs instead",
				n, s.cfg.MaxSyncElements)
			return
		}
	}
	report, hit, degraded, err := s.analyze(r.Context(), "sync", pr)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "rendering report: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Netlist-Fingerprint", pr.fingerprint)
	if hit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	if degraded {
		w.Header().Set("X-Degraded", "true")
	}
	w.Write(report) //nolint:errcheck
}

// runJob is the queue executor: it performs the cached analysis for one
// job and moves it to its terminal state.
func (s *Server) runJob(ctx context.Context, j *Job) {
	report, hit, degraded, err := s.analyze(ctx, "job", &parsedRequest{
		nl:          j.nl,
		fingerprint: j.Fingerprint,
		opt:         j.opt,
		key:         j.key,
		ro:          j.ro,
	})
	switch {
	case err != nil:
		j.finish(JobFailed, nil, false, err.Error())
		s.metrics.JobFinished(JobFailed)
	case degraded:
		j.finish(JobDegraded, report, hit, "")
		s.metrics.JobFinished(JobDegraded)
	default:
		j.finish(JobDone, report, hit, "")
		s.metrics.JobFinished(JobDone)
	}
}

// retryAfterSeconds derives the Retry-After hint for a 503 from the
// queue's state: depth times the recent mean job duration, spread over
// the workers, clamped to [1s, 60s] so a cold or pathological estimate
// never tells clients to stay away too long or hammer too soon.
func (s *Server) retryAfterSeconds() string {
	secs := int(s.queue.EstimatedWaitSeconds() + 0.999)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.Itoa(secs)
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	pr, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	j := NewJob(pr.nl, pr.opt, pr.fingerprint, pr.key)
	j.ro = pr.ro
	switch err := s.queue.Submit(j); {
	case errors.Is(err, ErrQueueFull):
		// Backpressure: tell well-behaved clients when to come back and
		// count the rejection so operators can alert on sustained overload.
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		s.metrics.QueueFull()
		writeError(w, http.StatusServiceUnavailable, "job queue full (capacity %d)", s.queue.Capacity())
		return
	case errors.Is(err, ErrShuttingDown):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j := s.queue.Get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q (finished jobs are retained for the last %d)", r.PathValue("id"), maxRetiredJobs)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// rtlCacheEntries bounds the decompiled-RTL artifact store.
const rtlCacheEntries = 128

// rtlArtifact is the cached value of one decompilation.
type rtlArtifact struct {
	verilog []byte
	equiv   *netlistre.RTLEquiv
}

// handleJobRTL serves GET /v1/jobs/{id}/rtl: the job's netlist decompiled
// to word-level Verilog. The emission is lazy — computed on first request,
// then cached in an artifact store keyed by the netlist fingerprint and
// the job's analysis options — and self-checked: RTL that fails the
// round-trip equivalence check is never served. Only done jobs qualify; a
// queued, running, degraded, or failed job gets 409, since its report
// (and so its lowering) is absent or partial.
func (s *Server) handleJobRTL(w http.ResponseWriter, r *http.Request) {
	j := s.queue.Get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q (finished jobs are retained for the last %d)", r.PathValue("id"), maxRetiredJobs)
		return
	}
	if st := j.State(); st != JobDone {
		writeError(w, http.StatusConflict, "job is %s; RTL is only available for done jobs", st)
		return
	}
	h := artifact.NewHasher("netlistre-rtl-v1")
	h.Str(j.Fingerprint)
	h.Str(j.key)
	var computeErr error
	art, _, err := s.rtl.Do(r.Context(), h.Sum(), func() (*artifact.Artifact, bool) {
		// Re-derive the report from the retained netlist; the shared
		// stage store turns this into a replay of the original analysis.
		opt := j.opt
		if s.stages != nil {
			opt.StageStore = s.stages
			opt.Fingerprint = j.Fingerprint
		}
		rep := netlistre.AnalyzeContext(r.Context(), j.nl, opt)
		s.metrics.AnalysisDone("rtl", rep.Trace)
		if rep.Degraded {
			computeErr = fmt.Errorf("re-analysis for RTL emission was degraded")
			return nil, false
		}
		er, eq, err := netlistre.DecompileRTL(j.nl, rep)
		if err != nil {
			computeErr = err
			return nil, false
		}
		if !eq.Equivalent {
			computeErr = fmt.Errorf("round-trip equivalence self-check failed: %v", eq)
			return nil, false
		}
		return &artifact.Artifact{
			Stage: "rtl",
			Value: &rtlArtifact{verilog: er.Verilog, equiv: eq},
		}, true
	})
	switch {
	case err != nil:
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case computeErr != nil:
		writeError(w, http.StatusInternalServerError, "decompile: %v", computeErr)
		return
	case art == nil:
		// Another caller's compute declined to publish (its request was
		// canceled mid-flight); this request can simply be retried.
		writeError(w, http.StatusServiceUnavailable, "RTL emission interrupted; retry")
		return
	}
	ra := art.Value.(*rtlArtifact)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Netlist-Fingerprint", j.Fingerprint)
	w.Header().Set("X-RTL-Equiv", ra.equiv.Method)
	w.Write(ra.verilog) //nolint:errcheck
}

// Article is one entry of GET /v1/articles.
type Article struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

func (s *Server) handleArticles(w http.ResponseWriter, r *http.Request) {
	var articles []Article
	for _, name := range netlistre.TestArticleNames() {
		articles = append(articles, Article{Name: name, Description: netlistre.TestArticleDescription(name)})
	}
	articles = append(articles,
		Article{Name: "bigsoc", Description: "seven-core SoC case study (Section V-C)"},
		Article{Name: "evoter-trojan", Description: "eVoter with key-sequence backdoor"},
		Article{Name: "oc8051-trojan", Description: "oc8051 with XOR kill switch"},
	)
	writeJSON(w, http.StatusOK, articles)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.queue.Closing() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]interface{}{
		"status":         status,
		"queue_depth":    s.queue.Depth(),
		"queue_capacity": s.queue.Capacity(),
		"jobs_running":   s.queue.Running(),
		"uptime_ms":      time.Since(s.start).Milliseconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g := Gauges{
		QueueDepth:       s.queue.Depth(),
		QueueCapacity:    s.queue.Capacity(),
		JobsRunning:      s.queue.Running(),
		QueueWaitSeconds: s.queue.EstimatedWaitSeconds(),
		UptimeSeconds:    time.Since(s.start).Seconds(),
		SessionsActive:   s.sessions.Active(),
	}
	if s.cache != nil {
		g.Cache = s.cache.Stats()
	}
	if s.stages != nil {
		g.StageCache = s.stages.Stats()
	}
	if err := s.metrics.WriteProm(w, g); err != nil {
		// The write failed mid-stream; nothing useful left to send.
		return
	}
}
