package server

// Session lifecycle battery: create/query/expire semantics, eviction under
// TTL and LRU pressure, concurrent access under -race with a goroutine-leak
// check, the stage-store provenance guarantee on re-runs, and the
// differential endpoints' golden behaviour and error semantics.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newSession submits an article job, waits for it to finish, and opens a
// session bound to it, returning the session ID.
func newSession(t *testing.T, ts string, article string) string {
	t.Helper()
	resp := postJSON(t, ts+"/v1/jobs", AnalyzeRequest{Article: article})
	var st JobStatus
	if err := json.Unmarshal(readBody(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if final := pollJob(t, ts+"/v1/jobs/"+st.ID); final.Status != JobDone {
		t.Fatalf("job finished %s, want done", final.Status)
	}
	resp = postJSON(t, ts+"/v1/sessions", CreateSessionRequest{JobID: st.ID})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: %d: %s", resp.StatusCode, body)
	}
	var ss SessionStatus
	if err := json.Unmarshal(body, &ss); err != nil {
		t.Fatal(err)
	}
	if ss.ID == "" || resp.Header.Get("Location") != "/v1/sessions/"+ss.ID {
		t.Fatalf("bad session status/Location: %+v / %q", ss, resp.Header.Get("Location"))
	}
	if len(ss.Revisions) != 1 || ss.Revisions[0].Name != "main" || !ss.Revisions[0].Analyzed {
		t.Fatalf("fresh session should hold one analyzed revision 'main': %+v", ss.Revisions)
	}
	return ss.ID
}

func getJSON(t *testing.T, url string, wantCode int, out interface{}) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, wantCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: %v: %s", url, err, body)
		}
	}
	return body
}

func TestSessionExploration(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := newSession(t, ts.URL, "evoter")
	base := ts.URL + "/v1/sessions/" + id

	var ss SessionStatus
	getJSON(t, base, http.StatusOK, &ss)
	if ss.ID != id {
		t.Fatalf("GET session ID = %q, want %q", ss.ID, id)
	}

	// Blocks: list, then expand the first one to gates and ports.
	var blocks struct {
		Revision string         `json:"revision"`
		Blocks   []BlockSummary `json:"blocks"`
	}
	getJSON(t, base+"/blocks", http.StatusOK, &blocks)
	if blocks.Revision != "main" || len(blocks.Blocks) == 0 {
		t.Fatalf("blocks: %+v", blocks)
	}
	var detail BlockDetail
	getJSON(t, fmt.Sprintf("%s/blocks/%d", base, blocks.Blocks[0].Index), http.StatusOK, &detail)
	if len(detail.Members) == 0 || len(detail.Members) != blocks.Blocks[0].Elements {
		t.Errorf("block 0 expanded to %d members, summary said %d",
			len(detail.Members), blocks.Blocks[0].Elements)
	}
	getJSON(t, base+"/blocks/9999", http.StatusBadRequest, nil)
	getJSON(t, base+"/blocks/x", http.StatusBadRequest, nil)

	var words struct {
		Words []WordStatus `json:"words"`
	}
	getJSON(t, base+"/words", http.StatusOK, &words)

	var ports struct {
		Inputs  []NodeRef    `json:"inputs"`
		Outputs []PortStatus `json:"outputs"`
	}
	getJSON(t, base+"/ports", http.StatusOK, &ports)
	if len(ports.Inputs) == 0 || len(ports.Outputs) == 0 {
		t.Fatalf("ports: %d inputs, %d outputs", len(ports.Inputs), len(ports.Outputs))
	}

	// Cone queries: fan-out of an input by name, fan-in of an output
	// driver by #id, caps and flags.
	var cone ConeResponse
	getJSON(t, base+"/cone?net="+ports.Inputs[0].Name+"&dir=fanout&depth=2&limit=10",
		http.StatusOK, &cone)
	if cone.Root.Name != ports.Inputs[0].Name || cone.Direction != "fanout" {
		t.Fatalf("cone root/direction: %+v", cone)
	}
	if len(cone.Nodes) == 0 || len(cone.Nodes) > 10 {
		t.Fatalf("cone size %d outside (0, 10]", len(cone.Nodes))
	}
	for _, n := range cone.Nodes {
		if n.Depth > 2 {
			t.Errorf("cone node %d at depth %d > 2", n.ID, n.Depth)
		}
	}
	var fanin ConeResponse
	getJSON(t, fmt.Sprintf("%s/cone?net=%%23%d", base, ports.Outputs[0].Driver.ID),
		http.StatusOK, &fanin)
	if fanin.Direction != "fanin" || fanin.Root.ID != ports.Outputs[0].Driver.ID {
		t.Fatalf("fanin cone: %+v", fanin.Root)
	}

	// Cone error semantics: unknown net, malformed id, bad dir, bad bounds.
	getJSON(t, base+"/cone", http.StatusBadRequest, nil)
	getJSON(t, base+"/cone?net=no-such-net", http.StatusBadRequest, nil)
	getJSON(t, base+"/cone?net=%23999999999", http.StatusBadRequest, nil)
	getJSON(t, base+"/cone?net="+ports.Inputs[0].Name+"&dir=sideways", http.StatusBadRequest, nil)
	getJSON(t, base+"/cone?net="+ports.Inputs[0].Name+"&depth=0", http.StatusBadRequest, nil)
	getJSON(t, base+"/cone?net="+ports.Inputs[0].Name+"&limit=99999999", http.StatusBadRequest, nil)

	// Unknown revision selector.
	getJSON(t, base+"/blocks?rev=nope", http.StatusBadRequest, nil)

	// Delete, then every further access 404s; a second delete 404s too.
	req, _ := http.NewRequest(http.MethodDelete, base, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d, want 204", resp.StatusCode)
	}
	getJSON(t, base, http.StatusNotFound, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", resp.StatusCode)
	}
}

func TestSessionCreateSemantics(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Malformed bodies and unknown fields are 400.
	for _, body := range []string{`{`, `{"job":"x"}`, `{}`} {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /v1/sessions %q = %d, want 400", body, resp.StatusCode)
		}
	}

	// Unknown job is 404.
	resp := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{JobID: "job-nope"})
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}

	// A job that finished degraded (1ms budget) is not bindable: 409.
	resp = postJSON(t, ts.URL+"/v1/jobs", AnalyzeRequest{
		Article: "evoter",
		Options: RequestOptions{TimeoutMS: 1},
	})
	var st JobStatus
	if err := json.Unmarshal(readBody(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if final := pollJob(t, ts.URL+"/v1/jobs/"+st.ID); final.Status != JobDegraded {
		t.Skipf("1ms job finished %s, not degraded; cannot exercise the 409", final.Status)
	}
	resp = postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{JobID: st.ID})
	readBody(t, resp)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("degraded job = %d, want 409", resp.StatusCode)
	}
}

// TestSessionEviction drives the TTL and LRU policies through an injected
// clock and a cap-2 store.
func TestSessionEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 2, SessionTTL: time.Minute})
	var offset atomic.Int64 // fake seconds added to the wall clock
	s.sessions.now = func() time.Time {
		return time.Now().Add(time.Duration(offset.Load()) * time.Second)
	}

	first := newSession(t, ts.URL, "evoter")
	second := newSession(t, ts.URL, "evoter")
	getJSON(t, ts.URL+"/v1/sessions/"+first, http.StatusOK, nil) // first is now most recent

	// A third session must evict the least recently used: second.
	third := newSession(t, ts.URL, "evoter")
	getJSON(t, ts.URL+"/v1/sessions/"+second, http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/sessions/"+first, http.StatusOK, nil)
	getJSON(t, ts.URL+"/v1/sessions/"+third, http.StatusOK, nil)

	// Advance past the TTL: everything idle expires lazily.
	offset.Store(120)
	getJSON(t, ts.URL+"/v1/sessions/"+first, http.StatusNotFound, nil)
	getJSON(t, ts.URL+"/v1/sessions/"+third, http.StatusNotFound, nil)

	// The metrics expose the lifecycle.
	metrics := string(getJSON(t, ts.URL+"/metrics", http.StatusOK, nil))
	for _, want := range []string{
		"revand_sessions_created_total 3",
		`revand_sessions_closed_total{reason="lru"} 1`,
		`revand_sessions_closed_total{reason="ttl"} 2`,
		"revand_sessions_active 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSessionConcurrent hammers create/query/delete from many goroutines
// (run under -race) and then checks the process leaked no goroutines.
func TestSessionConcurrent(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		// The server is built and torn down inside the closure, not with
		// t.Cleanup, so its handlers and queue workers are gone before the
		// leak check below counts goroutines.
		srv := New(Config{MaxSessions: 4})
		ts := httptest.NewServer(srv)
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()

		// One done job shared by every session.
		resp := postJSON(t, ts.URL+"/v1/jobs", AnalyzeRequest{Article: "evoter"})
		var st JobStatus
		if err := json.Unmarshal(readBody(t, resp), &st); err != nil {
			t.Fatal(err)
		}
		pollJob(t, ts.URL+"/v1/jobs/"+st.ID)

		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					resp := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{JobID: st.ID})
					body := readBody(t, resp)
					if resp.StatusCode != http.StatusCreated {
						t.Errorf("create: %d: %s", resp.StatusCode, body)
						return
					}
					var ss SessionStatus
					if err := json.Unmarshal(body, &ss); err != nil {
						t.Error(err)
						return
					}
					base := ts.URL + "/v1/sessions/" + ss.ID
					// The session may be LRU-evicted by a sibling at any
					// point, so 404 is as acceptable as 200 here — the
					// point is that no response is ever inconsistent and
					// the race detector stays quiet.
					for _, path := range []string{"", "/blocks", "/ports", "/words"} {
						r, err := http.Get(base + path)
						if err != nil {
							t.Error(err)
							return
						}
						readBody(t, r)
						if r.StatusCode != http.StatusOK && r.StatusCode != http.StatusNotFound {
							t.Errorf("GET %s = %d", path, r.StatusCode)
						}
					}
					req, _ := http.NewRequest(http.MethodDelete, base, nil)
					r, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					readBody(t, r)
				}
			}()
		}
		wg.Wait()
	}()
	waitGoroutines(t, before, 2)
}

// TestSessionRerunProvenance is the stage-store acceptance gate: a re-run
// with the options the session was analyzed under must answer entirely
// from the stage store — every stage replayed with "cached" provenance —
// and a re-run with different options must actually execute something.
func TestSessionRerunProvenance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := newSession(t, ts.URL, "evoter")
	base := ts.URL + "/v1/sessions/" + id

	resp := postJSON(t, base+"/rerun", RequestOptions{})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rerun: %d: %s", resp.StatusCode, body)
	}
	var rr RerunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Trace) == 0 || len(rr.Report) == 0 || rr.Degraded {
		t.Fatalf("rerun response: trace=%d report=%d degraded=%t",
			len(rr.Trace), len(rr.Report), rr.Degraded)
	}
	for _, st := range rr.Trace {
		if st.Provenance != "cached" {
			t.Errorf("stage %s provenance %q, want cached (stage store must answer an unchanged re-run)",
				st.Stage, st.Provenance)
		}
	}

	// Changing a report-shaping option forces at least one stage to run.
	resp = postJSON(t, base+"/rerun", RequestOptions{Objective: "min"})
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rerun(min): %d: %s", resp.StatusCode, body)
	}
	var rr2 RerunResponse
	if err := json.Unmarshal(body, &rr2); err != nil {
		t.Fatal(err)
	}
	ran := false
	for _, st := range rr2.Trace {
		if st.Provenance == "ran" {
			ran = true
		}
	}
	if !ran {
		t.Error("rerun with new options executed nothing")
	}

	// Bad bodies and options are 400.
	for _, body := range []string{`{`, `{"nope":1}`, `{"objective":"best"}`} {
		resp, err := http.Post(base+"/rerun", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("rerun %q = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestSessionRerunConcurrentReads races report queries against re-runs
// that alternate between two option sets. A re-run publishes a new
// revision instead of mutating the one concurrent readers hold, so under
// -race every handler must read its report race-free and succeed.
func TestSessionRerunConcurrentReads(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := newSession(t, ts.URL, "usb")
	base := ts.URL + "/v1/sessions/" + id
	bodies := []string{`{}`, `{"sliceable":false}`}
	paths := []string{"/blocks", "/blocks/0", "/words"}
	const reruns, reads = 8, 16

	var wg sync.WaitGroup
	// One slot per request, so no sender ever blocks.
	errs := make(chan error, reruns+len(paths)*reads)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reruns; i++ {
			resp, err := http.Post(base+"/rerun", "application/json", strings.NewReader(bodies[i%2]))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("rerun %s = %d", bodies[i%2], resp.StatusCode)
			}
		}
	}()
	for _, path := range paths {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				resp, err := http.Get(base + path)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s = %d", path, resp.StatusCode)
				}
			}
		}(path)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionDiffTrojan uploads the trojaned revision of the session's
// golden article and asserts the differential endpoint recovers the
// inserted gates, the self-diff is empty, and the error semantics hold.
func TestSessionDiffTrojan(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := newSession(t, ts.URL, "evoter")
	base := ts.URL + "/v1/sessions/" + id

	// Upload the suspect and a byte-identical twin of the golden.
	for name, article := range map[string]string{"suspect": "evoter-trojan", "twin": "evoter"} {
		resp := postJSON(t, base+"/revisions/"+name, AnalyzeRequest{Article: article})
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: %d: %s", name, resp.StatusCode, body)
		}
	}

	// Golden-vs-suspect: the trojan shows up as pure additions.
	resp := postJSON(t, base+"/diff", DiffRequest{Golden: "main", Suspect: "suspect"})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff: %d: %s", resp.StatusCode, body)
	}
	var dr DiffResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Identical || len(dr.Added) == 0 {
		t.Fatalf("trojan diff found nothing: %+v", dr)
	}
	if len(dr.Removed) != 0 || len(dr.Retyped) != 0 {
		t.Errorf("trojan diff reported removed=%d retyped=%d, want 0/0", len(dr.Removed), len(dr.Retyped))
	}
	if len(dr.SuspectGates) != len(dr.Added) {
		t.Errorf("suspect_gates=%d, want the %d added nodes", len(dr.SuspectGates), len(dr.Added))
	}

	// Self-diff: identical.
	resp = postJSON(t, base+"/diff", DiffRequest{Golden: "main", Suspect: "twin"})
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("self diff: %d: %s", resp.StatusCode, body)
	}
	var self DiffResponse
	if err := json.Unmarshal(body, &self); err != nil {
		t.Fatal(err)
	}
	if !self.Identical || len(self.Added)+len(self.Removed)+len(self.Retyped) != 0 {
		t.Errorf("self-diff not empty: %+v", self)
	}

	// Error semantics: unknown revisions 400, duplicate upload 409,
	// invalid names 400, malformed diff body 400. The matcher has no
	// tunables, so a body naming one is an unknown field.
	for _, body := range []string{`{"max_passes":4}`, `{"disable_sim":true}`} {
		resp = postJSON(t, base+"/diff", json.RawMessage(body))
		msg := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unknown field") {
			t.Errorf("diff %s = %d %s, want 400 unknown field", body, resp.StatusCode, msg)
		}
	}
	resp = postJSON(t, base+"/diff", DiffRequest{Golden: "main", Suspect: "nope"})
	readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("diff unknown revision = %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, base+"/diff", DiffRequest{}) // defaults golden/suspect: absent
	readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("diff default revisions = %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, base+"/revisions/suspect", AnalyzeRequest{Article: "evoter-trojan"})
	readBody(t, resp)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate revision = %d, want 409", resp.StatusCode)
	}
	resp = postJSON(t, base+"/revisions/Bad%20Name", AnalyzeRequest{Article: "evoter"})
	readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid revision name = %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, base+"/revisions/bad2", AnalyzeRequest{})
	readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty revision body = %d, want 400", resp.StatusCode)
	}

	// An uploaded-but-unanalyzed revision cannot serve report queries (409)
	// until an explicit rerun analyzes it.
	getJSON(t, base+"/blocks?rev=suspect", http.StatusConflict, nil)
	resp = postJSON(t, base+"/rerun?rev=suspect", RequestOptions{})
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rerun suspect: %d", resp.StatusCode)
	}
	getJSON(t, base+"/blocks?rev=suspect", http.StatusOK, nil)
}
