package netlistre

// Stage-store acceptance tests: the memoization layer must never change
// what the portfolio computes. A warm run replaying every artifact has to
// produce the same report byte for byte (modulo wall-clock fields and the
// trace's provenance column) as a cold run at any worker count, option
// changes must invalidate exactly the stages whose inputs they feed, and a
// run interrupted by a stage timeout must resume — re-executing only the
// interrupted tail.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"

	"netlistre/internal/overlap"
	"netlistre/internal/truth"
)

// provenanceRE strips the trace provenance fields, which legitimately
// differ between a cold and a warm run of the same analysis.
var provenanceRE = regexp.MustCompile(`,?\s*"provenance": "[a-z]+"`)

// jsonTimingRE matches the wall-clock JSON fields.
var jsonTimingRE = regexp.MustCompile(`"(runtime_ms|start_ms|duration_ms)": [0-9.eE+-]+`)

// canonicalJSON renders a report with wall-clock and provenance
// normalized away, leaving only the semantic content.
func canonicalJSON(t *testing.T, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	s := jsonTimingRE.ReplaceAllString(buf.String(), `"$1": 0`)
	return provenanceRE.ReplaceAllString(s, "")
}

// provenanceByStage indexes a report's trace by stage name.
func provenanceByStage(rep *Report) map[string]StageProvenance {
	m := make(map[string]StageProvenance, len(rep.Trace))
	for _, st := range rep.Trace {
		m[st.Name] = st.Provenance
	}
	return m
}

// TestStageCacheWarmDeterminism is the memoization soundness check: for
// serial and parallel schedules, a cold run with a fresh store and a warm
// run replaying from it must produce identical reports, and every warm
// stage must carry cached provenance.
func TestStageCacheWarmDeterminism(t *testing.T) {
	nl, err := TestArticle("usb")
	if err != nil {
		t.Fatal(err)
	}
	base := Analyze(nl, Options{}) // no store at all: the reference output
	want := canonicalJSON(t, base)

	for _, workers := range []int{1, 4} {
		store := NewStageStore(0)
		opt := Options{Workers: workers, StageStore: store}

		cold := Analyze(nl, opt)
		if got := canonicalJSON(t, cold); got != want {
			t.Errorf("workers=%d: cold run with store differs from storeless run\n--- cold ---\n%s\n--- reference ---\n%s",
				workers, got, want)
		}
		for name, p := range provenanceByStage(cold) {
			if p != StageRan {
				t.Errorf("workers=%d: cold stage %s provenance = %v, want ran", workers, name, p)
			}
		}

		warm := Analyze(nl, opt)
		if got := canonicalJSON(t, warm); got != want {
			t.Errorf("workers=%d: warm run differs from cold run\n--- warm ---\n%s\n--- reference ---\n%s",
				workers, got, want)
		}
		for name, p := range provenanceByStage(warm) {
			if p != StageCached {
				t.Errorf("workers=%d: warm stage %s provenance = %v, want cached", workers, name, p)
			}
		}
		// Replayed artifacts keep their produced counts, so the warm trace
		// is indistinguishable from the cold one module-for-module.
		for i, st := range warm.Trace {
			if st.Modules != cold.Trace[i].Modules {
				t.Errorf("workers=%d: stage %s modules warm=%d cold=%d",
					workers, st.Name, st.Modules, cold.Trace[i].Modules)
			}
		}
	}
}

// TestStageCacheOptionInvalidation changes one digested option at a time
// on a warm store: exactly the stages that consume it (and everything
// downstream of them) must re-execute, and every other stage must still
// hit.
func TestStageCacheOptionInvalidation(t *testing.T) {
	nl, err := TestArticle("usb")
	if err != nil {
		t.Fatal(err)
	}
	// The bitslice digest feeds every stage downstream of bitslicing.
	fromBitslice := []string{"bitslice", "aggregate", "fuse", "words", "modmatch",
		"rams", "registers", "order", "extra", "overlap"}
	cases := []struct {
		name string
		set  func(*Options)
		ran  []string
	}{
		{"KeepCandidates", func(o *Options) { o.KeepCandidates = true }, fromBitslice},
		{"ExtraLibrary", func(o *Options) { o.ExtraLibrary = truth.Library()[:1] }, fromBitslice},
		{"SkipWordProp", func(o *Options) { o.SkipWordProp = true },
			[]string{"words", "modmatch", "order", "extra", "overlap"}},
		{"SkipModMatch", func(o *Options) { o.SkipModMatch = true },
			[]string{"modmatch", "extra", "overlap"}},
		{"Overlap.Objective", func(o *Options) { o.Overlap.Objective = overlap.MinModules }, []string{"overlap"}},
		{"Overlap.Sliceable", func(o *Options) { o.Overlap.Sliceable = true }, []string{"overlap"}},
		{"Overlap.CoverageTarget", func(o *Options) { o.Overlap.CoverageTarget = 10 }, []string{"overlap"}},
		{"Overlap.MinSlices", func(o *Options) { o.Overlap.MinSlices = 3 }, []string{"overlap"}},
		{"Overlap.NodeLimit", func(o *Options) { o.Overlap.NodeLimit = 1000 }, []string{"overlap"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			store := NewStageStore(0)
			Analyze(nl, Options{StageStore: store}) // warm

			opt := Options{StageStore: store}
			c.set(&opt)
			rep := Analyze(nl, opt)
			ran := make(map[string]bool, len(c.ran))
			for _, name := range c.ran {
				ran[name] = true
			}
			for _, st := range rep.Trace {
				want := StageCached
				if ran[st.Name] {
					want = StageRan
				}
				if st.Provenance != want {
					t.Errorf("stage %s provenance = %v, want %v", st.Name, st.Provenance, want)
				}
				delete(ran, st.Name)
			}
			for name := range ran {
				t.Errorf("stage %s missing from the trace", name)
			}
		})
	}
}

// TestStageCacheResumeAfterStageTimeout interrupts the extra-pass stage
// with a per-stage budget it cannot meet, then repeats the analysis with a
// fast pass: the repeat must resume from the first run's published
// artifacts, re-executing only the interrupted stage and its dependents.
func TestStageCacheResumeAfterStageTimeout(t *testing.T) {
	nl, err := TestArticle("usb")
	if err != nil {
		t.Fatal(err)
	}
	store := NewStageStore(0)

	// The budget is generous for every built-in stage on the usb article
	// (modmatch, the one slow stage, is skipped) but hopeless for the
	// sleeping extra pass, so exactly one stage times out.
	opt1 := Options{StageStore: store, StageTimeout: 500 * time.Millisecond, SkipModMatch: true}
	opt1.ExtraPasses = append(opt1.ExtraPasses, func(*Netlist) []*Module {
		time.Sleep(2 * time.Second) // well past the stage budget
		return nil
	})
	rep1 := Analyze(nl, opt1)
	if !rep1.Degraded {
		t.Fatal("run with an over-budget extra pass must degrade")
	}
	for _, st := range rep1.Trace {
		switch st.Name {
		case "extra":
			if st.Status != StageTimedOut {
				t.Errorf("extra stage status = %v, want timed out", st.Status)
			}
		default:
			if st.Status != StageOK {
				t.Errorf("stage %s status = %v, want OK", st.Name, st.Status)
			}
		}
	}

	passRuns := 0
	opt2 := Options{StageStore: store, SkipModMatch: true}
	opt2.ExtraPasses = append(opt2.ExtraPasses, func(*Netlist) []*Module {
		passRuns++
		return nil
	})
	rep2 := Analyze(nl, opt2)
	if rep2.Degraded {
		t.Fatal("resumed run must complete un-degraded")
	}
	if passRuns != 1 {
		t.Errorf("fast pass ran %d times, want 1", passRuns)
	}
	prov := provenanceByStage(rep2)
	for name, p := range prov {
		switch name {
		case "extra", "overlap":
			// extra passes are opaque functions (uncacheable), and overlap
			// consumes the extra artifact, so both must re-execute.
			if p != StageRan {
				t.Errorf("stage %s provenance = %v, want ran", name, p)
			}
		default:
			if p != StageCached {
				t.Errorf("stage %s provenance = %v, want cached (resumed)", name, p)
			}
		}
	}
}

// TestStageCacheBench measures the cold-vs-warm speedup on the BigSoC
// case study and emits it as JSON for the benchmark harness. Gated behind
// BENCH_STAGECACHE_OUT (see `make bench-stagecache`) because the cold run
// analyzes the full SoC.
func TestStageCacheBench(t *testing.T) {
	out := os.Getenv("BENCH_STAGECACHE_OUT")
	if out == "" {
		t.Skip("set BENCH_STAGECACHE_OUT=<file> to run the stage-cache benchmark")
	}
	nl := Simplify(BigSoC()).Netlist
	store := NewStageStore(0)
	opt := Options{StageStore: store, SkipModMatch: true}
	opt.Overlap.Sliceable = true

	t0 := time.Now()
	cold := Analyze(nl, opt)
	coldDur := time.Since(t0)
	t1 := time.Now()
	warm := Analyze(nl, opt)
	warmDur := time.Since(t1)

	if cold.Degraded || warm.Degraded {
		t.Fatalf("benchmark runs degraded: cold=%v warm=%v", cold.Degraded, warm.Degraded)
	}
	for name, p := range provenanceByStage(warm) {
		if p != StageCached {
			t.Errorf("warm stage %s provenance = %v, want cached", name, p)
		}
	}
	speedup := float64(coldDur) / float64(warmDur)
	if speedup < 5 {
		t.Errorf("warm run speedup %.1fx, want >= 5x (cold %v, warm %v)", speedup, coldDur, warmDur)
	}

	stats := store.Stats()
	result := map[string]interface{}{
		"design":      nl.Name,
		"stages":      len(cold.Trace),
		"cold_ms":     float64(coldDur.Microseconds()) / 1000,
		"warm_ms":     float64(warmDur.Microseconds()) / 1000,
		"speedup":     fmt.Sprintf("%.1f", speedup),
		"stage_cache": map[string]int64{"hits": stats.Hits, "misses": stats.Misses},
	}
	b, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("cold %v, warm %v (%.1fx) -> %s", coldDur, warmDur, speedup, out)
}
