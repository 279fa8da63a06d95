GO ?= go

.PHONY: build test race fuzz vet fmt-check check bench-perf alloc-gate ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector: the engine's one-runner-at-a-time
# handoff, the parallel benchmark runner's worker pool, and the shared
# observer registry are all exercised concurrently by the bench tests.
race:
	$(GO) test -race ./...

# Short fuzz smoke of the parsers that consume untrusted bytes — the
# checkpoint codec round-trip and the scheme-name resolver — plus the engine's
# event-queue differential (4-ary heap vs container/heap reference). The Go
# fuzzer allows one target per invocation, hence one run each.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codec -run '^$$' -fuzz FuzzDeltaCodecRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bench -run '^$$' -fuzz FuzzVariantParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEventQueueOrder -fuzztime $(FUZZTIME)

vet:
	$(GO) vet ./...

# Crash-recovery correctness oracle (cmd/chkcheck): every explorer cell is
# crashed mid-run, recovered through its scheme's own protocol, audited
# against the consistency invariants, and compared byte-for-byte with a
# fault-free baseline. The quick sweep is the CI check-matrix job's matrix:
# 224 cells covering all 7 schemes in every quarter of their runs. Any
# failure prints the cell name and seed; CHECKFLAGS="-cell 'NAME'" replays
# it, CHECKFLAGS=-full runs the 1008-cell overnight lattice.
CHECKFLAGS ?= -quick
check:
	$(GO) run ./cmd/chkcheck $(CHECKFLAGS)

# Perf-trajectory harness (cmd/chkperf): run the pinned cell matrix with host
# telemetry armed and write one BENCH_<stamp>.json data point — cells/sec,
# events/sec, allocs/cell, per-cell wall-clock quantiles — so the engine's
# speed is tracked commit over commit. PERFFLAGS=-quick runs the reduced
# matrix CI gates on; `go run ./cmd/chkperf -compare BENCH_baseline.json
# BENCH_<stamp>.json -threshold 10` diffs two points.
PERFFLAGS ?=
bench-perf:
	$(GO) run ./cmd/chkperf $(PERFFLAGS)

# Allocation gate: the testing.AllocsPerRun zero-pins for the engine, codec,
# collective and message-transport hot paths, the transport's zero-spawn pin,
# plus a microbenchmark smoke of the event queue, payload codecs and remote
# Send — all under the race detector. A failure here means a change
# re-introduced steady-state allocation or per-message processes (or broke
# the queue/codec/transport) before the perf trajectory would have surfaced it.
alloc-gate:
	$(GO) test -race -run 'TestAllocs|TestDecodeF64sIntoMatches|TestSendSpawnsNoProcesses' ./internal/sim ./internal/codec ./internal/mp ./internal/fabric
	$(GO) test -race -run '^$$' -bench . -benchtime 10x ./internal/sim ./internal/codec ./internal/fabric

# Formatting gate: every Go file must be gofmt-clean.
fmt-check:
	test -z "$$(gofmt -l .)"

# What the GitHub workflow runs (.github/workflows/ci.yml): the full suite
# under the race detector, plus build, vet, the gofmt check, the fuzz smoke,
# and the allocation gate.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) fmt-check
	$(GO) test -race ./...
	$(MAKE) fuzz
	$(MAKE) alloc-gate
