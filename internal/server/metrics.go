package server

// Prometheus text-format metrics, hand-rolled on the standard library (the
// repo is dependency-free). Only the exposition subset the service needs is
// implemented: counters, gauges, and fixed-bucket histograms in the
// text/plain; version=0.0.4 format every Prometheus-compatible scraper
// accepts.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"netlistre"
	"netlistre/internal/artifact"
)

// stageBuckets are the per-stage duration histogram bounds in seconds.
// Stages range from sub-millisecond (lcg on small articles) to minutes
// (modmatch on BigSoC), so the buckets are log-spaced across that span.
var stageBuckets = [8]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

type histogram struct {
	counts [len(stageBuckets) + 1]int64 // +1 for +Inf
	sum    float64
	total  int64
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(stageBuckets[:], v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// Metrics aggregates the service counters. All methods are safe for
// concurrent use.
type Metrics struct {
	mu sync.Mutex

	jobs      map[string]int64 // terminal job states -> count
	analyses  map[string]int64 // "sync" / "job" -> completed analyses
	http      map[string]int64 // "route|code" -> count
	stages    map[string]*histogram
	queueFull int64 // submissions rejected because the queue was full

	sessionsCreated int64
	sessionsClosed  map[string]int64 // eviction reason -> count
	sessionDiffs    int64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		jobs:           make(map[string]int64),
		analyses:       make(map[string]int64),
		http:           make(map[string]int64),
		stages:         make(map[string]*histogram),
		sessionsClosed: make(map[string]int64),
	}
}

// SessionCreated counts one exploration session opening.
func (m *Metrics) SessionCreated() {
	m.mu.Lock()
	m.sessionsCreated++
	m.mu.Unlock()
}

// SessionClosed counts one session leaving the store, by reason
// ("ttl", "lru", or "deleted").
func (m *Metrics) SessionClosed(reason string) {
	m.mu.Lock()
	m.sessionsClosed[reason]++
	m.mu.Unlock()
}

// SessionDiff counts one differential comparison served.
func (m *Metrics) SessionDiff() {
	m.mu.Lock()
	m.sessionDiffs++
	m.mu.Unlock()
}

// JobFinished counts a job reaching a terminal state.
func (m *Metrics) JobFinished(state string) {
	m.mu.Lock()
	m.jobs[state]++
	m.mu.Unlock()
}

// QueueFull counts a job submission rejected with 503 because the queue
// was at capacity (the backpressure signal clients should alert on).
func (m *Metrics) QueueFull() {
	m.mu.Lock()
	m.queueFull++
	m.mu.Unlock()
}

// AnalysisDone counts one completed (non-cached) analysis by source and
// feeds the per-stage duration histograms from the report trace.
func (m *Metrics) AnalysisDone(source string, trace []netlistre.StageTiming) {
	m.mu.Lock()
	m.analyses[source]++
	for _, st := range trace {
		h := m.stages[st.Name]
		if h == nil {
			h = &histogram{}
			m.stages[st.Name] = h
		}
		h.observe(st.Duration.Seconds())
	}
	m.mu.Unlock()
}

// HTTPRequest counts one served request by route pattern and status code.
func (m *Metrics) HTTPRequest(route string, code int) {
	m.mu.Lock()
	m.http[route+"|"+strconv.Itoa(code)]++
	m.mu.Unlock()
}

// Gauges carries the point-in-time values rendered alongside the counters.
type Gauges struct {
	QueueDepth       int
	QueueCapacity    int
	JobsRunning      int
	QueueWaitSeconds float64
	Cache            artifact.Stats
	StageCache       netlistre.StageCacheStats
	UptimeSeconds    float64
	SessionsActive   int
}

// errw mirrors the root package's errWriter: check a long sequence of
// formatted writes once at the end.
type errw struct {
	w   io.Writer
	err error
}

func (e *errw) printf(format string, args ...interface{}) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteProm renders every metric in the Prometheus text exposition format.
// Output is deterministic (sorted label values) so it can be asserted in
// tests.
func (m *Metrics) WriteProm(w io.Writer, g Gauges) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := &errw{w: w}

	e.printf("# HELP revand_jobs_total Jobs finished, by terminal state.\n")
	e.printf("# TYPE revand_jobs_total counter\n")
	for _, state := range sortedKeys(m.jobs) {
		e.printf("revand_jobs_total{state=%q} %d\n", state, m.jobs[state])
	}

	e.printf("# HELP revand_analyses_total Completed (non-cached) analyses, by source.\n")
	e.printf("# TYPE revand_analyses_total counter\n")
	for _, src := range sortedKeys(m.analyses) {
		e.printf("revand_analyses_total{source=%q} %d\n", src, m.analyses[src])
	}

	e.printf("# HELP revand_http_requests_total HTTP requests served, by route and status code.\n")
	e.printf("# TYPE revand_http_requests_total counter\n")
	for _, key := range sortedKeys(m.http) {
		var route, code string
		if i := strings.LastIndexByte(key, '|'); i >= 0 {
			route, code = key[:i], key[i+1:]
		}
		e.printf("revand_http_requests_total{route=%q,code=%q} %d\n", route, code, m.http[key])
	}

	e.printf("# HELP revand_queue_depth Jobs waiting to start.\n")
	e.printf("# TYPE revand_queue_depth gauge\n")
	e.printf("revand_queue_depth %d\n", g.QueueDepth)
	e.printf("# HELP revand_queue_capacity Job queue bound.\n")
	e.printf("# TYPE revand_queue_capacity gauge\n")
	e.printf("revand_queue_capacity %d\n", g.QueueCapacity)
	e.printf("# HELP revand_jobs_running Jobs currently executing.\n")
	e.printf("# TYPE revand_jobs_running gauge\n")
	e.printf("revand_jobs_running %d\n", g.JobsRunning)
	e.printf("# HELP revand_job_queue_wait_seconds Estimated wait before a job submitted now would start.\n")
	e.printf("# TYPE revand_job_queue_wait_seconds gauge\n")
	e.printf("revand_job_queue_wait_seconds %g\n", g.QueueWaitSeconds)
	e.printf("# HELP revand_queue_full_total Job submissions rejected because the queue was full.\n")
	e.printf("# TYPE revand_queue_full_total counter\n")
	e.printf("revand_queue_full_total %d\n", m.queueFull)

	e.printf("# HELP revand_cache_hits_total Report cache hits.\n")
	e.printf("# TYPE revand_cache_hits_total counter\n")
	e.printf("revand_cache_hits_total %d\n", g.Cache.Hits)
	e.printf("# HELP revand_cache_misses_total Report cache misses.\n")
	e.printf("# TYPE revand_cache_misses_total counter\n")
	e.printf("revand_cache_misses_total %d\n", g.Cache.Misses)
	e.printf("# HELP revand_cache_evictions_total Report cache LRU evictions.\n")
	e.printf("# TYPE revand_cache_evictions_total counter\n")
	e.printf("revand_cache_evictions_total %d\n", g.Cache.Evictions)
	e.printf("# HELP revand_cache_entries Reports currently cached.\n")
	e.printf("# TYPE revand_cache_entries gauge\n")
	e.printf("revand_cache_entries %d\n", g.Cache.Entries)
	e.printf("# HELP revand_cache_bytes Bytes of cached report JSON.\n")
	e.printf("# TYPE revand_cache_bytes gauge\n")
	e.printf("revand_cache_bytes %d\n", g.Cache.Bytes)

	e.printf("# HELP revand_stagecache_hits_total Stage-store artifact hits across analyses.\n")
	e.printf("# TYPE revand_stagecache_hits_total counter\n")
	e.printf("revand_stagecache_hits_total %d\n", g.StageCache.Hits)
	e.printf("# HELP revand_stagecache_misses_total Stage-store misses (stage bodies executed).\n")
	e.printf("# TYPE revand_stagecache_misses_total counter\n")
	e.printf("revand_stagecache_misses_total %d\n", g.StageCache.Misses)
	e.printf("# HELP revand_stagecache_evictions_total Stage artifacts dropped by the LRU bound.\n")
	e.printf("# TYPE revand_stagecache_evictions_total counter\n")
	e.printf("revand_stagecache_evictions_total %d\n", g.StageCache.Evictions)
	e.printf("# HELP revand_stagecache_entries Stage artifacts currently stored.\n")
	e.printf("# TYPE revand_stagecache_entries gauge\n")
	e.printf("revand_stagecache_entries %d\n", g.StageCache.Entries)

	e.printf("# HELP revand_sessions_created_total Exploration sessions opened.\n")
	e.printf("# TYPE revand_sessions_created_total counter\n")
	e.printf("revand_sessions_created_total %d\n", m.sessionsCreated)
	e.printf("# HELP revand_sessions_closed_total Sessions closed, by reason.\n")
	e.printf("# TYPE revand_sessions_closed_total counter\n")
	for _, reason := range sortedKeys(m.sessionsClosed) {
		e.printf("revand_sessions_closed_total{reason=%q} %d\n", reason, m.sessionsClosed[reason])
	}
	e.printf("# HELP revand_sessions_active Sessions currently live.\n")
	e.printf("# TYPE revand_sessions_active gauge\n")
	e.printf("revand_sessions_active %d\n", g.SessionsActive)
	e.printf("# HELP revand_session_diffs_total Differential comparisons served.\n")
	e.printf("# TYPE revand_session_diffs_total counter\n")
	e.printf("revand_session_diffs_total %d\n", m.sessionDiffs)

	e.printf("# HELP revand_uptime_seconds Seconds since the service started.\n")
	e.printf("# TYPE revand_uptime_seconds gauge\n")
	e.printf("revand_uptime_seconds %g\n", g.UptimeSeconds)

	e.printf("# HELP revand_stage_duration_seconds Pipeline stage wall-clock duration.\n")
	e.printf("# TYPE revand_stage_duration_seconds histogram\n")
	stageNames := make([]string, 0, len(m.stages))
	for name := range m.stages {
		stageNames = append(stageNames, name)
	}
	sort.Strings(stageNames)
	for _, name := range stageNames {
		h := m.stages[name]
		cum := int64(0)
		for i, bound := range stageBuckets {
			cum += h.counts[i]
			e.printf("revand_stage_duration_seconds_bucket{stage=%q,le=%q} %d\n",
				name, strconv.FormatFloat(bound, 'g', -1, 64), cum)
		}
		cum += h.counts[len(stageBuckets)]
		e.printf("revand_stage_duration_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", name, cum)
		e.printf("revand_stage_duration_seconds_sum{stage=%q} %g\n", name, h.sum)
		e.printf("revand_stage_duration_seconds_count{stage=%q} %d\n", name, h.total)
	}
	return e.err
}
