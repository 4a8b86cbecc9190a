GO ?= go

.PHONY: build test test-short test-race bench bench-smoke bench-stagecache bench-match conformance decompile-smoke diff-gate fuzz vet load-smoke resume-smoke session-smoke coverage ci

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

test-short: build
	$(GO) test -short ./...

# Race-checks the parallel portfolio scheduler and every other goroutine
# on the full suite (including the BigSoC TestAnalyzeParallelRace, which
# -short would skip). Run on every PR.
test-race: build
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x ./...

# Smoke tests of the pipeline benchmark (bench/, its own Go module): the
# quick configuration of every workload plus the harness's consistency
# checks, so a change to an internal API the benchmark calls fails here
# rather than in a later benchmark run.
bench-smoke:
	cd bench && $(GO) test -short ./...

# Cold-vs-warm stage-store comparison on the BigSoC case study: analyzes
# the SoC once from scratch, then again replaying every stage artifact,
# and writes the timings (and the >= 5x speedup assertion) to
# BENCH_stagecache.json.
bench-stagecache: build
	BENCH_STAGECACHE_OUT=BENCH_stagecache.json $(GO) test -run TestStageCacheBench -count 1 -v .

# Ground-truth conformance matrix: every labeled article analyzed at two
# worker counts, scored against the generator labels, pushed through the
# metamorphic mutations, and gated on testdata/conformance_baseline.json.
# Deterministic: two runs write identical BENCH_conformance.json.
# Re-record the baseline after an intentional quality change with
#   go run ./cmd/revcheck -bless
conformance: build
	$(GO) run ./cmd/revcheck

# Decompilation gate: every labeled article lowered to word-level Verilog
# at workers 1 and 4, byte-identical across counts, round-trip equivalence
# verified, and per-article residual gate/latch counts gated against
# testdata/decompile_baseline.json. Re-record after an intentional
# coverage change with
#   go run ./cmd/revcheck -decompile -bless
decompile-smoke: build
	$(GO) run ./cmd/revcheck -decompile

# Differential gate: each labeled golden/trojan article pair (gate- and
# LUT-mapped) diffed with the multi-pass matcher; the added set must equal
# the injected trojan gate set exactly, with a clean self-diff per golden.
diff-gate: build
	$(GO) run ./cmd/revcheck -diff

# Cut-classification microbenchmark: replays BigSoC's shrunk cut-function
# stream through the old per-entry permutation search and the new memoized
# canonical-index classifier, asserts the >= 3x speedup and the ratio gate
# against testdata/bench_match_baseline.json, and writes BENCH_match.json.
bench-match: build
	BENCH_MATCH_OUT=BENCH_match.json $(GO) test -run TestMatchBench -count 1 -v .

# Short fuzz sweep of the netlist parsers, the JSON report decoder, the
# RTL round trip and elaborator scanner, the ILP solver and the 2QBF
# solver (seeds always run under `make test`; this explores beyond them).
fuzz:
	$(GO) test ./internal/netlist -fuzz FuzzReadVerilog -fuzztime 30s
	$(GO) test ./internal/netlist -fuzz FuzzReadBLIF -fuzztime 30s
	$(GO) test . -run FuzzReadJSONReport -fuzz FuzzReadJSONReport -fuzztime 30s
	$(GO) test ./internal/truth -fuzz FuzzCanon -fuzztime 30s
	$(GO) test ./internal/rtl -fuzz FuzzEmitRTL -fuzztime 30s
	$(GO) test ./internal/rtl -fuzz FuzzElaborate -fuzztime 30s
	$(GO) test ./internal/server -run 'Fuzz' -fuzz FuzzSessionRequest -fuzztime 30s
	$(GO) test ./internal/server -run 'Fuzz' -fuzz FuzzDiffRequest -fuzztime 30s
	$(GO) test ./internal/ilp -fuzz FuzzSolve -fuzztime 30s
	$(GO) test ./internal/qbf -fuzz FuzzSolveForallEqualWord -fuzztime 30s

vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# Coverage: whole-repo total over the short suite, plus the conformance
# oracle's own coverage, which is gated at 80% (the scorer is the part of
# the harness that must not rot silently).
coverage: build
	$(GO) test -short -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	$(GO) test -coverprofile=coverage_oracle.out ./internal/oracle
	@total=$$($(GO) tool cover -func=coverage_oracle.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "internal/oracle coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { if (t+0 < 80) { print "internal/oracle coverage below the 80% gate"; exit 1 } }'

# Load-smokes the revand service under the race detector: ~50 concurrent
# mixed requests (cache-hot repeats, cold uploads, async jobs, metrics
# scrapes), a clean drain, and a goroutine-leak check — plus the daemon's
# real SIGTERM shutdown path.
load-smoke:
	$(GO) test -race -run 'TestLoadSmoke' -count 1 ./internal/server
	$(GO) test -race -run 'TestRunServesAndDrainsOnSIGTERM' -count 1 ./cmd/revand

# Race-checks the stage store's resume path: warm-run determinism at two
# worker counts plus the timeout-then-resume round trip.
resume-smoke:
	$(GO) test -race -run 'TestStageCacheWarmDeterminism|TestStageCacheResumeAfterStageTimeout' -count 1 .

# Drives a scripted interactive session end to end against a real revand
# under the race detector: analyze an article as a job, bind a session,
# list and expand blocks, run a cone query, re-run a stage from the warm
# stage store (all provenance must read "cached"), upload the trojaned
# twin as a second revision, diff it, then drain on SIGTERM with exit 0.
session-smoke:
	$(GO) test -race -run 'TestSessionSmoke' -count 1 ./cmd/revand

# Mirrors .github/workflows/ci.yml: full build + vet + a gofmt check +
# tests, a short-mode race pass, the revand load smoke, the scripted
# session smoke, the conformance matrix, the decompilation gate, the
# differential trojan gate, the matching microbenchmark, the benchmark
# smoke tests, the coverage gate, and 30-second fuzz smokes of the
# parsers, the report decoder, the canonicalizer, the RTL round trip, the
# session/diff request decoders, the ILP solver and the 2QBF solver.
ci: build vet
	test -z "$$(gofmt -l .)"
	$(GO) test ./...
	$(GO) test -short -race ./...
	$(GO) test -race -run 'TestLoadSmoke' -count 1 ./internal/server
	$(GO) test -race -run 'TestRunServesAndDrainsOnSIGTERM' -count 1 ./cmd/revand
	$(GO) test -race -run 'TestStageCacheWarmDeterminism|TestStageCacheResumeAfterStageTimeout' -count 1 .
	$(MAKE) session-smoke
	$(MAKE) conformance
	$(MAKE) decompile-smoke
	$(MAKE) diff-gate
	$(MAKE) bench-match
	$(MAKE) bench-smoke
	$(MAKE) coverage
	$(GO) test ./internal/netlist -fuzz FuzzReadVerilog -fuzztime 30s
	$(GO) test ./internal/netlist -fuzz FuzzReadBLIF -fuzztime 30s
	$(GO) test . -run FuzzReadJSONReport -fuzz FuzzReadJSONReport -fuzztime 30s
	$(GO) test ./internal/truth -fuzz FuzzCanon -fuzztime 30s
	$(GO) test ./internal/rtl -fuzz FuzzEmitRTL -fuzztime 30s
	$(GO) test ./internal/rtl -fuzz FuzzElaborate -fuzztime 30s
	$(GO) test ./internal/server -run 'Fuzz' -fuzz FuzzSessionRequest -fuzztime 30s
	$(GO) test ./internal/server -run 'Fuzz' -fuzz FuzzDiffRequest -fuzztime 30s
	$(GO) test ./internal/ilp -fuzz FuzzSolve -fuzztime 30s
	$(GO) test ./internal/qbf -fuzz FuzzSolveForallEqualWord -fuzztime 30s
