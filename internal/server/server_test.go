package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"netlistre"
)

// newTestServer starts a Server behind httptest and tears both down with
// the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// waitGoroutines polls until the goroutine count drops back to at most
// base+slack, reporting the shortfall on timeout.
func waitGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("goroutines leaked: %d now vs %d at start (+%d allowed)\n%s", n, base, slack, buf)
			return
		}
		time.Sleep(50 * time.Millisecond)
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wallClockRE matches the report's wall-clock fields, which legitimately
// differ between two runs of the same analysis.
var wallClockRE = regexp.MustCompile(`"(runtime_ms|start_ms|duration_ms)": [0-9.eE+-]+`)

func normalizeTimings(b []byte) string {
	return wallClockRE.ReplaceAllString(string(b), `"$1": 0`)
}

// refVerilog returns the reference circuit from the fingerprint tests as
// Verilog and BLIF text plus the netlist itself.
func refVerilog(t *testing.T, name string) (verilog, blif string) {
	t.Helper()
	n := netlistre.NewNetlist(name)
	a := n.AddInput("a")
	b := n.AddInput("b")
	c := n.AddInput("c")
	w1 := n.AddNamedGate("w1", netlistre.And, a, b)
	w2 := n.AddNamedGate("w2", netlistre.Not, c)
	q := n.AddNamedLatch("q", w1)
	y := n.AddNamedGate("y", netlistre.Or, w1, w2, q)
	n.SetLatchD(q, y)
	n.MarkOutput("y", y)
	var v, bl bytes.Buffer
	if err := n.WriteVerilog(&v); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteBLIF(&bl); err != nil {
		t.Fatal(err)
	}
	return v.String(), bl.String()
}

// TestAnalyzeMatchesRevan is the wire-format acceptance check: the service
// response for an article must match what the revan CLI (-json) computes
// for the same netlist and options, byte for byte once wall-clock fields
// are normalized.
func TestAnalyzeMatchesRevan(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Article: "usb"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("first request X-Cache = %q, want MISS", got)
	}
	body := readBody(t, resp)

	nl, err := netlistre.TestArticle("usb")
	if err != nil {
		t.Fatal(err)
	}
	if fp := resp.Header.Get("X-Netlist-Fingerprint"); fp != nl.Fingerprint() {
		t.Errorf("X-Netlist-Fingerprint = %q, want %q", fp, nl.Fingerprint())
	}
	opt := netlistre.Options{}
	opt.Overlap.Sliceable = true // the revan default (no -basic-ilp)
	rep := netlistre.Analyze(nl, opt)
	var want bytes.Buffer
	if err := netlistre.WriteJSONReport(&want, rep); err != nil {
		t.Fatal(err)
	}
	if normalizeTimings(body) != normalizeTimings(want.Bytes()) {
		t.Errorf("service report differs from revan -json:\n--- service ---\n%s\n--- revan ---\n%s",
			body, want.String())
	}
}

func TestAnalyzeCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	req := AnalyzeRequest{Article: "evoter"}
	first := postJSON(t, ts.URL+"/v1/analyze", req)
	firstBody := readBody(t, first)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", first.StatusCode, firstBody)
	}

	second := postJSON(t, ts.URL+"/v1/analyze", req)
	secondBody := readBody(t, second)
	if got := second.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("repeat request X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Error("cache hit response is not byte-identical to the original")
	}
	if st := s.cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", st)
	}

	// Different options must not share the entry.
	third := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		Article: "evoter",
		Options: RequestOptions{SkipModMatch: true},
	})
	readBody(t, third)
	if got := third.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("changed options X-Cache = %q, want MISS", got)
	}
}

// TestAnalyzeCrossFormatCacheShare is the content-addressing payoff: the
// same circuit uploaded as Verilog and then as BLIF shares one cache
// entry, because the key is the canonical fingerprint, not the upload
// bytes.
func TestAnalyzeCrossFormatCacheShare(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	verilog, blif := refVerilog(t, "ref")

	first := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Verilog: verilog})
	firstBody := readBody(t, first)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("verilog upload: status %d: %s", first.StatusCode, firstBody)
	}
	second := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{BLIF: blif})
	secondBody := readBody(t, second)
	if got := second.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("BLIF re-upload of same circuit X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Error("cross-format cache hit returned different bytes")
	}
}

func TestJobsLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp := postJSON(t, ts.URL+"/v1/jobs", AnalyzeRequest{Article: "evoter"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	loc := resp.Header.Get("Location")
	var st JobStatus
	if err := json.Unmarshal(readBody(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || loc != "/v1/jobs/"+st.ID {
		t.Fatalf("bad submit response: id %q, location %q", st.ID, loc)
	}

	final := pollJob(t, ts.URL+loc)
	if final.Status != JobDone {
		t.Fatalf("job finished %q (error %q), want done", final.Status, final.Error)
	}
	if len(final.Report) == 0 {
		t.Fatal("finished job carries no report")
	}

	// The sync endpoint for the same request must now be a cache hit with
	// the job's report. The status envelope re-indents the embedded raw
	// message, so compare compacted forms.
	sync := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Article: "evoter"})
	syncBody := readBody(t, sync)
	if got := sync.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("sync after job X-Cache = %q, want HIT", got)
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, syncBody); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, final.Report); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("sync response differs from the job report for the same key")
	}

	// A second identical job records a cache hit in its status.
	resp2 := postJSON(t, ts.URL+"/v1/jobs", AnalyzeRequest{Article: "evoter"})
	var st2 JobStatus
	if err := json.Unmarshal(readBody(t, resp2), &st2); err != nil {
		t.Fatal(err)
	}
	final2 := pollJob(t, ts.URL+"/v1/jobs/"+st2.ID)
	if final2.Status != JobDone || !final2.CacheHit {
		t.Errorf("repeat job = %q cache_hit=%v, want done with cache_hit", final2.Status, final2.CacheHit)
	}
}

func pollJob(t *testing.T, url string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		if err := json.Unmarshal(readBody(t, resp), &st); err != nil {
			t.Fatal(err)
		}
		switch st.Status {
		case JobDone, JobDegraded, JobFailed:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish within 60s")
	return JobStatus{}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"two sources", `{"article":"usb","verilog":"module m (); endmodule"}`, http.StatusBadRequest},
		{"unknown article", `{"article":"nonesuch"}`, http.StatusBadRequest},
		{"bad verilog", `{"verilog":"not a netlist"}`, http.StatusBadRequest},
		{"bad objective", `{"article":"usb","options":{"objective":"most"}}`, http.StatusBadRequest},
		{"negative timeout", `{"article":"usb","options":{"timeout_ms":-5}}`, http.StatusBadRequest},
		{"unknown field", `{"articel":"usb"}`, http.StatusBadRequest},
		{"not json", `hello`, http.StatusBadRequest},
	}
	for _, endpoint := range []string{"/v1/analyze", "/v1/jobs"} {
		for _, tc := range cases {
			resp, err := http.Post(ts.URL+endpoint, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body := readBody(t, resp)
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: status %d, want %d (%s)", endpoint, tc.name, resp.StatusCode, tc.want, body)
			}
			var apiErr apiError
			if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Error == "" {
				t.Errorf("%s %s: error body not structured: %s", endpoint, tc.name, body)
			}
		}
	}
}

func TestSyncSizeGate(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSyncElements: 10})
	resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Article: "usb"})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "/v1/jobs") {
		t.Errorf("413 body should steer to /v1/jobs: %s", body)
	}
}

func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRequestBytes: 128})
	big := fmt.Sprintf(`{"verilog":%q}`, strings.Repeat("x", 1024))
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (%s)", resp.StatusCode, body)
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (%s)", resp.StatusCode, body)
	}
}

func TestArticlesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/articles")
	if err != nil {
		t.Fatal(err)
	}
	var articles []Article
	if err := json.Unmarshal(readBody(t, resp), &articles); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, a := range articles {
		names[a.Name] = true
		if a.Description == "" {
			t.Errorf("article %q has no description", a.Name)
		}
	}
	for _, want := range []string{"usb", "evoter", "mips16", "bigsoc", "evoter-trojan", "oc8051-trojan"} {
		if !names[want] {
			t.Errorf("articles listing missing %q", want)
		}
	}
}

func TestHealthzAndDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status        string `json:"status"`
		QueueCapacity int    `json:"queue_capacity"`
	}
	if err := json.Unmarshal(readBody(t, resp), &health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.QueueCapacity != 64 {
		t.Errorf("healthz = %d %+v, want 200 ok capacity 64", resp.StatusCode, health)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp2); resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d (%s), want 503", resp2.StatusCode, body)
	}
	resp3 := postJSON(t, ts.URL+"/v1/jobs", AnalyzeRequest{Article: "evoter"})
	if body := readBody(t, resp3); resp3.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("job submit while draining = %d (%s), want 503", resp3.StatusCode, body)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// One miss, one hit, one finished job.
	readBody(t, postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Article: "evoter"}))
	readBody(t, postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Article: "evoter"}))
	var st JobStatus
	if err := json.Unmarshal(readBody(t, postJSON(t, ts.URL+"/v1/jobs", AnalyzeRequest{Article: "evoter"})), &st); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL+"/v1/jobs/"+st.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	body := string(readBody(t, resp))
	for _, want := range []string{
		"revand_jobs_total{state=\"done\"} 1",
		"revand_cache_hits_total 2",
		"revand_cache_misses_total 1",
		"revand_queue_depth 0",
		"revand_queue_capacity 64",
		"revand_analyses_total{source=\"sync\"} 1",
		"revand_queue_full_total 0",
		"revand_cache_entries 1",
		"revand_stagecache_hits_total 0", // one cold analysis: misses only
		"revand_stage_duration_seconds_bucket{stage=\"overlap\",le=\"+Inf\"} 1",
		"revand_http_requests_total{route=\"/v1/analyze\",code=\"200\"} 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n--- exposition ---\n%s", want, body)
		}
	}
	if !regexp.MustCompile(`(?m)^revand_cache_bytes [1-9][0-9]*$`).MatchString(body) {
		t.Errorf("revand_cache_bytes is not a positive count\n--- exposition ---\n%s", body)
	}
}

// TestDegradedNotCached drives the analysis path with an already-canceled
// context: the run degrades deterministically and its partial report must
// not poison the cache.
func TestDegradedNotCached(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	nl, err := netlistre.TestArticle("usb")
	if err != nil {
		t.Fatal(err)
	}
	var ro RequestOptions
	opt := ro.toOptions(nl, 0)
	fp := nl.Fingerprint()
	key := ro.cacheKey(fp, 0)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, hit, degraded, err := s.analyze(ctx, "sync", &parsedRequest{nl: nl, fingerprint: fp, opt: opt, key: key, ro: ro})
	if err != nil {
		t.Fatal(err)
	}
	if hit || !degraded {
		t.Fatalf("canceled analyze: hit=%v degraded=%v, want miss+degraded", hit, degraded)
	}
	var js netlistre.JSONReport
	if err := json.Unmarshal(report, &js); err != nil {
		t.Fatalf("degraded report is not valid JSON: %v", err)
	}
	if !js.Degraded {
		t.Error("degraded report does not say degraded")
	}
	if st := s.cache.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Misses != 1 {
		t.Errorf("degraded report was cached: %+v, want 1 miss and nothing stored", st)
	}
}

// TestCanceledWaiterDegrades: a request whose context ends while another
// request is computing the same report still gets a degraded report of
// its own, not an error.
func TestCanceledWaiterDegrades(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	nl, err := netlistre.TestArticle("usb")
	if err != nil {
		t.Fatal(err)
	}
	var ro RequestOptions
	fp := nl.Fingerprint()
	key := ro.cacheKey(fp, 0)

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	leaderOpt := ro.toOptions(nl, 0)
	leaderOpt.Progress = func(netlistre.StageEvent) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		s.analyze(context.Background(), "sync", &parsedRequest{nl: nl, fingerprint: fp, opt: leaderOpt, key: key, ro: ro})
	}()
	<-entered // the leader now holds the report's flight

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, hit, degraded, err := s.analyze(ctx, "sync", &parsedRequest{nl: nl, fingerprint: fp, opt: ro.toOptions(nl, 0), key: key, ro: ro})
	close(release)
	<-leaderDone
	if err != nil || hit || !degraded {
		t.Fatalf("canceled waiter: hit=%v degraded=%v err=%v, want a degraded miss", hit, degraded, err)
	}
}

// TestCacheDisabled: a negative CacheEntries leaves the service without a
// report cache, so a repeated request runs the portfolio again.
func TestCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: -1})
	if s.cache != nil {
		t.Fatal("CacheEntries -1 still built a report cache")
	}
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Article: "usb"})
		readBody(t, resp)
		if got := resp.Header.Get("X-Cache"); got != "MISS" {
			t.Errorf("request %d X-Cache = %q, want MISS", i, got)
		}
	}
	m := string(getJSON(t, ts.URL+"/metrics", http.StatusOK, nil))
	for _, want := range []string{`revand_analyses_total{source="sync"} 2`, "revand_cache_entries 0"} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCacheHitMissEvict runs a one-entry report cache over two keys: each
// new key evicts the other, and a repeat of the surviving key hits.
func TestCacheHitMissEvict(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 1})
	verilog, _ := refVerilog(t, "tiny")
	a := AnalyzeRequest{Verilog: verilog}
	b := AnalyzeRequest{Verilog: verilog, Options: RequestOptions{SkipModMatch: true}}
	for i, step := range []struct {
		req  AnalyzeRequest
		want string
	}{{a, "MISS"}, {b, "MISS"}, {a, "MISS"}, {a, "HIT"}} {
		resp := postJSON(t, ts.URL+"/v1/analyze", step.req)
		readBody(t, resp)
		if got := resp.Header.Get("X-Cache"); got != step.want {
			t.Errorf("step %d X-Cache = %q, want %s", i, got, step.want)
		}
	}
	if st := s.cache.Stats(); st.Hits != 1 || st.Misses != 3 || st.Evictions != 2 || st.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit, 3 misses, 2 evictions, 1 entry", st)
	}
}

// TestCacheDuplicatePut serves one key twice, once synchronously and once
// as a job: the cache holds a single entry whose byte count is exactly the
// one report's size.
func TestCacheDuplicatePut(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := readBody(t, postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Article: "usb"}))
	var st JobStatus
	if err := json.Unmarshal(readBody(t, postJSON(t, ts.URL+"/v1/jobs", AnalyzeRequest{Article: "usb"})), &st); err != nil {
		t.Fatal(err)
	}
	if final := pollJob(t, ts.URL+"/v1/jobs/"+st.ID); !final.CacheHit {
		t.Errorf("job for a cached key: cache_hit = false")
	}
	if cs := s.cache.Stats(); cs.Entries != 1 || cs.Bytes != int64(len(body)) {
		t.Errorf("cache stats = %+v, want 1 entry of %d bytes", cs, len(body))
	}
}

// TestCacheConcurrent sends identical cold requests at once: the report
// cache runs the portfolio a single time and every client gets the same
// bytes.
func TestCacheConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const clients = 4
	bodies := make([][]byte, clients)
	caches := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(AnalyzeRequest{Article: "evoter"})
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
			caches[i] = resp.Header.Get("X-Cache")
		}(i)
	}
	wg.Wait()
	misses := 0
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("client %d got different bytes than client 0", i)
		}
		if caches[i] == "MISS" {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("X-Cache values %v, want exactly one MISS", caches)
	}
	m := string(getJSON(t, ts.URL+"/metrics", http.StatusOK, nil))
	if want := `revand_analyses_total{source="sync"} 1`; !strings.Contains(m, want) {
		t.Errorf("metrics missing %q\n%s", want, m)
	}
}

// TestPartitionResetsValidation: the partition_resets option is gone, so
// a request that sets it is rejected as an unknown field.
func TestPartitionResetsValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"article":"usb","options":{"partition_resets":["rst"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "partition_resets") {
		t.Errorf("error should name the unknown field: %s", body)
	}
}

// TestIncludeElementsRoundTrip: include_elements adds per-module element
// IDs and keys the cache separately from the default rendering.
func TestIncludeElementsRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	plain := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Article: "usb"})
	plainBody := readBody(t, plain)
	with := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{
		Article: "usb",
		Options: RequestOptions{IncludeElements: true},
	})
	withBody := readBody(t, with)

	if with.Header.Get("X-Cache") != "MISS" {
		t.Errorf("include_elements request hit the plain request's cache entry")
	}
	if bytes.Contains(plainBody, []byte(`"element_ids"`)) {
		t.Error("plain report leaked element IDs")
	}
	if !bytes.Contains(withBody, []byte(`"element_ids"`)) {
		t.Error("include_elements report carries no element IDs")
	}

	var probe struct {
		Modules []struct {
			Elements   int   `json:"elements"`
			ElementIDs []int `json:"element_ids"`
		} `json:"modules"`
	}
	if err := json.Unmarshal(withBody, &probe); err != nil {
		t.Fatal(err)
	}
	if len(probe.Modules) == 0 {
		t.Fatal("no modules in usb report")
	}
	for i, m := range probe.Modules {
		if len(m.ElementIDs) != m.Elements {
			t.Errorf("module %d: %d element IDs, elements %d", i, len(m.ElementIDs), m.Elements)
		}
	}
}

// TestShutdownDrainsQueuedJobs submits more jobs than workers and then
// shuts down: every job must still reach a terminal state with a report.
func TestShutdownDrainsQueuedJobs(t *testing.T) {
	s := New(Config{QueueWorkers: 1, QueueDepth: 8})
	var ids []*Job
	for i := 0; i < 4; i++ {
		req := AnalyzeRequest{Article: "evoter"}
		if i%2 == 1 {
			req.Options.SkipModMatch = true // alternate keys: mix of hits and misses
		}
		nl, err := buildNetlist(&req)
		if err != nil {
			t.Fatal(err)
		}
		fp := nl.Fingerprint()
		j := NewJob(nl, req.Options.toOptions(nl, 0), fp, req.Options.cacheKey(fp, 0))
		if err := s.queue.Submit(j); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i, j := range ids {
		if st := j.State(); st != JobDone {
			t.Errorf("job %d state after drain = %q, want done", i, st)
		}
	}
}

// TestQueueFullBackpressure wedges the single queue worker on a job whose
// progress callback blocks, fills the one-slot queue, and checks that the
// next submission is rejected with 503 + Retry-After and surfaces in the
// revand_queue_full_total counter.
func TestQueueFullBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueWorkers: 1, QueueDepth: 1})

	nl, err := netlistre.TestArticle("evoter")
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	var once sync.Once
	opt := netlistre.Options{}
	opt.Progress = func(netlistre.StageEvent) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	fp := nl.Fingerprint()
	blocker := NewJob(nl, opt, fp, "blocker-"+fp)
	if err := s.queue.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	<-entered // the worker is now parked inside the blocker's first stage

	resp := postJSON(t, ts.URL+"/v1/jobs", AnalyzeRequest{Article: "usb"})
	if body := readBody(t, resp); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("filling submission: status %d, want 202 (%s)", resp.StatusCode, body)
	}

	resp2 := postJSON(t, ts.URL+"/v1/jobs", AnalyzeRequest{Article: "mips16"})
	body := readBody(t, resp2)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submission: status %d, want 503 (%s)", resp2.StatusCode, body)
	}
	if ra := resp2.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("503 Retry-After = %q, want \"1\"", ra)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Errorf("503 body does not mention the queue: %s", body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if m := string(readBody(t, mresp)); !strings.Contains(m, "revand_queue_full_total 1") {
		t.Errorf("metrics missing revand_queue_full_total 1:\n%s", m)
	}
}

// TestStageStoreSharesWorkAcrossRequests issues two analyses of the same
// netlist that differ only in skip_modmatch: the second is a report-cache
// miss, but every stage upstream of modmatch must replay from the
// process-wide stage store with "cached" provenance while modmatch and its
// dependents re-execute.
func TestStageStoreSharesWorkAcrossRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	readBody(t, postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Article: "usb"}))

	req := AnalyzeRequest{Article: "usb"}
	req.Options.SkipModMatch = true
	resp := postJSON(t, ts.URL+"/v1/analyze", req)
	body := readBody(t, resp)
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("options change X-Cache = %q, want MISS", got)
	}
	var js netlistre.JSONReport
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	prov := make(map[string]string, len(js.Trace))
	for _, st := range js.Trace {
		prov[st.Name] = st.Provenance
	}
	for _, name := range []string{"bitslice", "support", "aggregate", "words", "registers", "order"} {
		if prov[name] != "cached" {
			t.Errorf("stage %s provenance = %q, want cached", name, prov[name])
		}
	}
	for _, name := range []string{"modmatch", "extra", "overlap"} {
		if prov[name] != "" {
			t.Errorf("stage %s provenance = %q, want ran (omitted)", name, prov[name])
		}
	}

	st := s.stages.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("stage store saw no traffic: %+v", st)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := string(readBody(t, mresp))
	for _, want := range []string{
		fmt.Sprintf("revand_stagecache_hits_total %d", st.Hits),
		fmt.Sprintf("revand_stagecache_misses_total %d", st.Misses),
		fmt.Sprintf("revand_stagecache_entries %d", st.Entries),
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q\n--- exposition ---\n%s", want, m)
		}
	}
}

// TestDegradedRunResumesFromStageStore cancels an analysis at a stage
// boundary and repeats it: the degraded report was never report-cached, so
// the repeat runs the portfolio again — but the first run's completed
// stages replay from the process-wide store and only the interrupted tail
// re-executes.
func TestDegradedRunResumesFromStageStore(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	nl, err := netlistre.TestArticle("usb")
	if err != nil {
		t.Fatal(err)
	}
	var ro RequestOptions
	fp := nl.Fingerprint()
	key := ro.cacheKey(fp, 0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := ro.toOptions(nl, 0)
	opt.Workers = 1 // serial: stages complete in declaration order
	opt.Progress = func(ev netlistre.StageEvent) {
		if ev.Done && ev.Stage == "aggregate" {
			cancel()
		}
	}
	_, hit, degraded, err := s.analyze(ctx, "sync", &parsedRequest{nl: nl, fingerprint: fp, opt: opt, key: key, ro: ro})
	if err != nil {
		t.Fatal(err)
	}
	if hit || !degraded {
		t.Fatalf("interrupted analyze: hit=%v degraded=%v, want miss+degraded", hit, degraded)
	}

	opt2 := ro.toOptions(nl, 0)
	opt2.Workers = 1
	report, hit, degraded, err := s.analyze(context.Background(), "sync", &parsedRequest{nl: nl, fingerprint: fp, opt: opt2, key: key, ro: ro})
	if err != nil {
		t.Fatal(err)
	}
	if hit || degraded {
		t.Fatalf("resumed analyze: hit=%v degraded=%v, want miss+complete", hit, degraded)
	}
	var js netlistre.JSONReport
	if err := json.Unmarshal(report, &js); err != nil {
		t.Fatal(err)
	}
	prov := make(map[string]string, len(js.Trace))
	for _, st := range js.Trace {
		prov[st.Name] = st.Provenance
		if st.Status != "" {
			t.Errorf("resumed run stage %s status = %q, want OK", st.Name, st.Status)
		}
	}
	for _, name := range []string{"bitslice", "support", "aggregate"} {
		if prov[name] != "cached" {
			t.Errorf("stage %s provenance = %q, want cached (resumed)", name, prov[name])
		}
	}
	if prov["overlap"] != "" {
		t.Errorf("stage overlap provenance = %q, want ran", prov["overlap"])
	}
}
