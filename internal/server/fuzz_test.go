package server

// Fuzz coverage for the session-layer request decoders: arbitrary JSON
// bodies and cone-query strings must come back as 2xx or 4xx — never a
// panic, never a 5xx — because every malformed shape is a client error by
// contract. Seeds are the golden request bodies from the session tests.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzSession builds a server holding one analyzed session (tiny inline
// Verilog, so worker start-up stays cheap) and returns its base URL and
// session path.
func fuzzSession(f *testing.F) (ts *httptest.Server, base string) {
	f.Helper()
	s := New(Config{})
	ts = httptest.NewServer(s)
	f.Cleanup(ts.Close)

	const src = `module m (a, b, y);
 input a; input b;
 output y;
 and g0 (w, a, b);
 not g1 (y, w);
endmodule
`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"verilog": %q}`, src)))
	if err != nil {
		f.Fatal(err)
	}
	var st JobStatus
	if err := decodeBody(resp, &st); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			f.Fatal(err)
		}
		if err := decodeBody(r, &st); err != nil {
			f.Fatal(err)
		}
		if st.Status == JobDone {
			break
		}
		if st.Status == JobFailed || st.Status == JobDegraded {
			f.Fatalf("seed job finished %s", st.Status)
		}
	}
	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"job_id": %q}`, st.ID)))
	if err != nil {
		f.Fatal(err)
	}
	var ss SessionStatus
	if err := decodeBody(resp, &ss); err != nil {
		f.Fatal(err)
	}
	if ss.ID == "" {
		f.Fatal("no session ID")
	}
	// A second revision so diff bodies can resolve real revisions.
	resp, err = http.Post(ts.URL+"/v1/sessions/"+ss.ID+"/revisions/suspect",
		"application/json", strings.NewReader(fmt.Sprintf(`{"verilog": %q}`, src)))
	if err != nil {
		f.Fatal(err)
	}
	resp.Body.Close()
	return ts, "/v1/sessions/" + ss.ID
}

// postRaw sends body and asserts the response is never a 5xx.
func postRaw(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode >= 500 {
		t.Fatalf("POST %s with %q = %d; arbitrary input must be a client error", url, body, resp.StatusCode)
	}
}

func FuzzSessionRequest(f *testing.F) {
	ts, base := fuzzSession(f)

	// Golden request bodies and cone queries as seeds.
	for _, seed := range [][2]string{
		{`{"job_id": "job-0011223344556677"}`, "net=a&dir=fanout&depth=2&limit=10"},
		{`{"job_id": ""}`, "net=%23` + `0&dir=fanin"},
		{`{}`, "net=y&depth=1&limit=1"},
		{`{"workers": 1, "objective": "min"}`, "net=a&dir=sideways"},
		{`{"objective": "max", "timeout_ms": 5}`, "net=&depth=-1"},
		{`{"unknown_field": true}`, "net=a&depth=99999&limit=0"},
		{`[]`, "net=a%00b"},
		{``, `net=a&dir=fanin&depth=07&limit=+3`},
	} {
		f.Add(seed[0], seed[1])
	}

	f.Fuzz(func(t *testing.T, body, coneQuery string) {
		// Session creation decoder.
		postRaw(t, ts.URL+"/v1/sessions", body)
		// Re-run options decoder on the live session.
		postRaw(t, ts.URL+base+"/rerun", body)
		// Revision-upload decoder (unique name per shape is unnecessary:
		// duplicates are a 409, which is still a 4xx).
		postRaw(t, ts.URL+base+"/revisions/fuzzrev", body)
		// Cone query-parameter parsing.
		req, err := http.NewRequest(http.MethodGet, ts.URL+base+"/cone?"+coneQuery, nil)
		if err != nil {
			return // not even a legal URL: rejected before the server
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("GET cone?%q = %d", coneQuery, resp.StatusCode)
		}
	})
}

func FuzzDiffRequest(f *testing.F) {
	ts, base := fuzzSession(f)

	for _, seed := range []string{
		`{"golden": "main", "suspect": "suspect"}`,
		`{"golden": "suspect", "suspect": "main"}`,
		`{"golden": "main", "suspect": "main"}`,
		`{}`,
		`{"golden": "nope"}`,
		`{"suspect": ""}`,
		`{"golden": "Bad Name", "suspect": "suspect"}`,
		`{"golden": "main", "suspect": "suspect", "golden": "suspect"}`,
		`{"golden": 3}`,
		`null`,
		`{`,
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, body string) {
		postRaw(t, ts.URL+base+"/diff", body)
	})
}

func decodeBody(resp *http.Response, v interface{}) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
