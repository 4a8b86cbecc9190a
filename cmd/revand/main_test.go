package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestRunServesAndDrainsOnSIGTERM boots the daemon on an ephemeral port,
// performs a real analysis over HTTP, then delivers SIGTERM and expects a
// clean drain with exit code 0.
func TestRunServesAndDrainsOnSIGTERM(t *testing.T) {
	var stdout, stderr bytes.Buffer
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "4"},
			&stdout, &stderr, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("server did not come up\nstderr: %s", stderr.String())
	}

	resp, err := http.Post("http://"+addr+"/v1/analyze", "application/json",
		strings.NewReader(`{"article":"evoter"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"design"`)) {
		t.Errorf("response does not look like a JSON report: %.200s", body)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d after SIGTERM, want 0\nstderr: %s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if !strings.Contains(stdout.String(), "drained") {
		t.Errorf("shutdown log missing drain message:\n%s", stdout.String())
	}
}

func TestRunFlagValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-queue", "0"}, &stdout, &stderr, nil); code != 2 {
		t.Errorf("-queue 0: exit %d, want 2", code)
	}
	if code := run([]string{"-nonsense"}, &stdout, &stderr, nil); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

func TestRunListenFailure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", "256.0.0.1:99999"}, &stdout, &stderr, nil); code != 1 {
		t.Errorf("bad address: exit %d, want 1", code)
	}
}
