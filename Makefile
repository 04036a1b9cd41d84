# Build and verification entry points. `make check` is what CI runs;
# the individual targets exist so a fast local loop stays fast.

GO ?= go
FUZZTIME ?= 10s
# package:target pairs; `go test -fuzz` accepts one target per run.
FUZZ_TARGETS := \
	./internal/check:FuzzManagerTrace \
	./internal/heap:FuzzFreeIndex \
	./internal/mm/bitmapff:FuzzBitmapFirstFit \
	./internal/check:FuzzBoundsMonotone \
	./internal/check:FuzzTraceRoundtrip \
	./internal/trace:FuzzReadJSON \
	./internal/lint/analysistest:FuzzSplitPatterns

BENCH_PATTERN := BenchmarkSim1PF|BenchmarkAllocatorThroughput|BenchmarkObsOverhead|BenchmarkFreeIndex
# The packages holding the gated benchmarks: the end-to-end ones at the
# root, and L0's free-space index.
BENCH_PKGS := . ./internal/heap
BENCH_OUT := bench.out

.PHONY: all build test fmt vet lint race fuzz-smoke robustness resume-drill chaos serve serve-drill check bench bench-check perfbench-check mutants referee trace heatmap netlines clean

all: build

build:
	$(GO) build ./...

# Tier 1: the gate every change must pass.
test: build
	$(GO) test ./...

# Formatting gate: fails, listing the files, when gofmt would rewrite
# any Go file in the tree.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt -l: these files need formatting:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Domain lint: the compactlint analyzers prove the repo's invariants
# (nil-guarded tracing, %w wrapping, determinism, noalloc hot path,
# context flow, lock ordering, atomic/guarded field discipline,
# goroutine termination, fsync-before-rename) at compile time. Exit
# 0 = clean, 1 = findings, 2 = driver error; CI treats anything
# non-zero as a failure. -timing prints per-analyzer wall clock so a
# slow analyzer shows up in the log, not as a mystery lint slowdown.
lint: build
	$(GO) run ./cmd/compactlint -timing ./...
	$(GO) run ./cmd/compactlint -waivers ./...

# The concurrency-sensitive packages under the race detector: the
# engine, the parallel sweep, and the verification harness (whose
# stress test drives sweep.RunOpts past GOMAXPROCS with a shared-state
# canary manager), and heapscope, whose samplers compactd's HTTP
# readers encode while the cells sample into them.
race:
	$(GO) test -race ./internal/sim ./internal/sweep ./internal/check ./internal/obs \
		./internal/obs/heapscope ./internal/resume ./internal/faultinject ./internal/lint/... \
		./cmd/compactlint ./internal/service ./cmd/compactd ./internal/dist

# The fault-tolerance suite under the race detector: every injected
# fault class (panic, deadline, alloc failure, transient, sink write
# error), checkpoint/resume determinism, cancellation, and the CLI's
# flush-on-failure and exit-code contracts.
robustness:
	$(GO) test -race ./internal/resume ./internal/faultinject ./internal/dist ./cmd/compactsim ./cmd/sweepworker
	$(GO) test -race -run 'Panic|Deadline|Retry|Retries|Cancel|Checkpoint|Journal|Degrad|Ticker|Backoff|Injected' ./internal/sweep

# End-to-end recovery drill: sweep → SIGTERM → resume → byte-compare
# against an uninterrupted run, then a -coordinate -ledger run and its
# worker SIGKILLed mid-grid → the coordinator rerun on its ledger →
# byte-compare. Slower than the unit suite (it runs a real grid four
# times over); CI runs it in the robustness job.
resume-drill:
	scripts/resume_drill.sh

# Distributed chaos drill: coordinator + 4 workers, two SIGKILLed
# mid-grid, one hung on its lease, one double-delivering a commit —
# the merged CSV must be byte-identical to an uninterrupted
# single-process run and the monitor must show the recoveries. CI
# runs this as its own job.
chaos:
	scripts/chaos_drill.sh

# Run the resident simulation service locally with a durable data
# directory: http://localhost:8080 serves the dashboard, the job API,
# and /metrics/prom. Ctrl-C drains in-flight jobs to their checkpoints; the
# next `make serve` resumes them.
SERVE_DATA ?= .compactd
serve: build
	$(GO) run ./cmd/compactd -addr :8080 -data $(SERVE_DATA)

# Service-level recovery drill: compactd → submit over HTTP → SIGTERM
# mid-sweep → restart → the job resumes from its journal and the result
# CSV is byte-identical to an uninterrupted run. CI runs this in the
# service job.
serve-drill:
	scripts/serve_drill.sh

# A short fuzzing pass over every native fuzz target. Each target runs
# separately because `go test -fuzz` accepts only one target per
# invocation.
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz $$pkg $$name ($(FUZZTIME))"; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$name$$" -fuzztime=$(FUZZTIME) || exit 1; \
	done

check: fmt test vet lint race fuzz-smoke

# Run the gated benchmarks once and refresh the committed baseline.
# Commit the updated BENCH_sim.json together with the change that
# shifted the numbers.
bench: build
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime 1x $(BENCH_PKGS) | tee $(BENCH_OUT)
	$(GO) run ./cmd/benchdiff -write BENCH_sim.json $(BENCH_OUT)

# Run the gated benchmarks and fail if any measurement drifts beyond
# the tolerances documented in cmd/benchdiff. CI runs this as a
# non-blocking job (shared runners make wall clock noisy); treat a
# local failure as a real signal.
bench-check: build
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime 1x $(BENCH_PKGS) | tee $(BENCH_OUT)
	$(GO) run ./cmd/benchdiff -check BENCH_sim.json $(BENCH_OUT)

# Vet and test the benchmark module (perfbench/, its own Go module, so
# `go test ./...` at the root does not reach it). It wraps and fills
# the engine's manager interfaces and the sweep and worker options, so
# a change there that breaks it fails here, not only when the
# benchmark runs.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The mutant ledger: apply each one-line mutant of scripts/mutants.tsv
# to a temporary copy of the tree and require its named test to fail.
# It also fails when a ledgered line no longer reads as recorded, so an
# edit to such a line updates its row. CI runs it as a non-blocking job.
mutants:
	scripts/mutants.sh

# P_F at 1/128 of paper scale against every registered manager under
# the exact referee: every placement, free and move of each run is
# re-checked against the referee's own bitmap (about 2 s on 2 CPUs).
# CI's test job runs it.
referee: build
	$(GO) run ./cmd/compactsim -adversary pf -M 128Ki -n 4Ki -c 16 -manager all -check

# Produce sample observability artifacts from a seeded adversarial
# run: a Chrome trace_event file (load trace_pf.json in Perfetto or
# chrome://tracing) and the per-round HS/live/moved series as CSV.
trace: build
	$(GO) run ./cmd/compactsim -adversary pf -M 16Ki -n 64 -c 8 -manager first-fit \
		-trace-out trace_pf.json -series-out series_pf.csv

# Produce sample heap-introspection artifacts from the same seeded
# adversarial run against two managers: heapscope heatmap JSON
# (free-interval histograms, largest free extent, occupancy heatmap,
# multi-resolution over rounds) for first-fit and TLSF, the pair the
# EXPERIMENTS fragmentation note reads side by side.
heatmap: build
	$(GO) run ./cmd/compactsim -adversary pf -M 16Ki -n 64 -c 8 -manager first-fit \
		-heatmap-out heatmap_pf_first-fit.json -heatmap-every 1
	$(GO) run ./cmd/compactsim -adversary pf -M 16Ki -n 64 -c 8 -manager tlsf \
		-heatmap-out heatmap_pf_tlsf.json -heatmap-every 1

# Go lines added, removed and net since BASE, non-test and _test.go
# separately (testdata/ excluded): the figure CHANGES.md records for
# every change, e.g. `make netlines BASE=origin/main`.
netlines:
	scripts/netlines.sh $(BASE)

clean:
	$(GO) clean ./...
