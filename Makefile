# Development entry points.  Everything is standard-library Go; no
# external dependencies.  "make lint" runs go vet plus the repo's own
# simdlint analyzers (cmd/simdlint), which enforce the determinism
# invariants documented in DESIGN.md; it is part of the default target.

GO ?= go

.PHONY: all build test test-race bench bench-go bench-check mark loc fuzz vet lint lint-hotpath discipline fmt serve fleet load experiments-quick experiments-full report clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -short, as in CI: the race detector prices every channel and WaitGroup
# sync, so the Workers overhead bound and the allocation ceilings, which
# hold for the plain build, are not measured under it.
test-race:
	$(GO) test -race -short ./...

# The engine's benchmarks: every pinned run of internal/simd's table (the
# schedules, allocation ceilings and Workers overhead bound those runs must
# hold are tests, in "make test"), the structure-of-arrays micro-benchmarks
# and the spill sweep.
bench:
	$(GO) test -run '^$$' -bench BenchmarkPinnedRun -benchmem ./internal/simd
	$(GO) test -run '^$$' -bench 'BenchmarkFlagFill|BenchmarkMatchBits|BenchmarkArenaTransfer|BenchmarkArenaFirstReceive|BenchmarkExpandKernel' -benchmem .
	$(GO) test -run '^$$' -bench BenchmarkSweepThrash -benchmem ./internal/spill

# CI smoke variant: the small-P pool run at Workers 1 and 2, plus the
# structure-of-arrays micro-benchmarks (allocs/op must stay 0;
# BenchmarkExpandKernel fails itself when a steady-state cycle allocates,
# BenchmarkMatchBits when a matching phase does, BenchmarkSweepThrash when
# a warmed-up evict/fault sweep does, BenchmarkArenaFirstReceive when a
# fresh arena's first receives allocate per PE instead of per flag word).
bench-check:
	$(GO) test -run '^$$' -bench 'BenchmarkPinnedRun/pool-small-p' -benchtime 100x -benchmem ./internal/simd
	$(GO) test -run '^$$' -bench 'BenchmarkFlagFill|BenchmarkMatchBits|BenchmarkArenaTransfer|BenchmarkArenaFirstReceive|BenchmarkExpandKernel' -benchtime 100x -benchmem .
	$(GO) test -run '^$$' -bench BenchmarkSweepThrash -benchtime 100x -benchmem ./internal/spill

# simdmark, the benchmark of record (benchmark/, BENCHMARK.json), at the
# smoke test's scale: all six workloads in seconds.  Claims quote the
# full-scale run, "go run ./benchmark".
mark:
	$(GO) run ./benchmark -scale short

# Non-test Go lines per package and in total, outside benchmark/ and the
# linter's fixtures: the figure simplification PRs record in CHANGES.md.
loc:
	@./scripts/loc.sh

# The full go-test microbenchmark suite (allocation counts per benchmark).
bench-go:
	$(GO) test -bench=. -benchmem ./...

# Short fuzzing bursts over the wire format, puzzle validator, the
# checkpoint, steal-frame and spill-segment decoders, the spill manager's
# event sequence (its inputs are long scripts, so minimising a new one is
# capped: the default minute would eat the burst), and the matchers against
# their flag-by-flag oracles.
fuzz:
	$(GO) test -run=xxx -fuzz FuzzDecodeStack -fuzztime 30s ./internal/wire
	$(GO) test -run=xxx -fuzz FuzzDecodeNode -fuzztime 15s ./internal/wire
	$(GO) test -run=xxx -fuzz FuzzFromTiles -fuzztime 15s ./internal/puzzle
	$(GO) test -run=xxx -fuzz FuzzDecodeCheckpoint -fuzztime 30s ./internal/checkpoint
	$(GO) test -run=xxx -fuzz FuzzDecodeStealFrame -fuzztime 30s ./internal/steal
	$(GO) test -run=xxx -fuzz FuzzDecodeSpillSegment -fuzztime 30s ./internal/spill
	$(GO) test -run=xxx -fuzz FuzzResidencySequence -fuzztime 30s -fuzzminimizetime 2s ./internal/spill
	$(GO) test -run=xxx -fuzz FuzzMatchBits -fuzztime 15s ./internal/match

vet:
	$(GO) vet ./...

# Repo-specific static analysis: determinism (detrand, maporder), dropped
# errors (errdrop) and the call-graph pair (hotalloc, ctxflow).  Lock
# copies are go vet's copylocks; the sync/atomic, sync.Pool and SSE
# producer rules are rows of the discipline table.
lint: vet lint-hotpath discipline
	$(GO) run ./cmd/simdlint ./...

# The "written once" gates — frame-, api-, schedule-, shard-, match-,
# arena-, sync- and sse-discipline — are one table of (name, patterns,
# allowed paths, message, expected count) in scripts/discipline.sh, which
# first proves every pattern still fires on a planted violation and then
# checks the tree.
discipline:
	@./scripts/discipline.sh selftest
	@./scripts/discipline.sh

# Fail when the //lint:hotpath root inventory drifts from the committed
# list, so a root cannot silently lose its annotation (and with it the
# zero-alloc coverage of everything it reaches).
lint-hotpath:
	$(GO) run ./cmd/simdlint -hotpath | diff -u docs/hotpath_roots.txt - \
		|| { echo "hotpath roots changed; review and update docs/hotpath_roots.txt" >&2; exit 1; }

fmt:
	gofmt -l -w .

# Run the HTTP search service on :8080 (see DESIGN.md section 9 and the
# README quickstart for the job API).
serve:
	$(GO) run ./cmd/simdserve

# Run a local fleet: coordinator on :18080 fronting FLEET_NODES spooled
# nodes on consecutive ports from FLEET_BASE_PORT (defaults 3 nodes on
# :18081-:18083; see DESIGN.md sections 12 and 15).  FLEET_STEAL=5s turns
# on cross-node work stealing.  Ctrl-C tears it down.
FLEET_NODES ?= 3
FLEET_BASE_PORT ?= 18081
FLEET_STEAL ?=

fleet:
	$(GO) build -o bin/simdserve ./cmd/simdserve
	$(GO) build -o bin/simdfleet ./cmd/simdfleet
	./scripts/fleet.sh -n $(FLEET_NODES) -p $(FLEET_BASE_PORT) $(if $(FLEET_STEAL),-s $(FLEET_STEAL))

# Traffic-layer load smoke: simdload drives an in-process frontend for a
# few seconds and prints its JSON report (jobs/sec, latency percentiles,
# collapse rate, tenant fairness spread).  -check fails the run on
# transport errors, zero throughput, or any byte-identity violation among
# collapsed responses (see DESIGN.md section 14).
load:
	$(GO) run ./cmd/simdload -inproc -duration 5s -check -out -

# The paper's evaluation at reduced scale (~2 min).
experiments-quick:
	$(GO) run ./cmd/experiments -scale quick -domain puzzle all

# The paper's evaluation at its own scale: P = 8192, W up to ~16M (~40 min).
experiments-full:
	$(GO) run ./cmd/experiments -scale full -domain puzzle -csv results/csv all

# Regenerate the markdown paper-vs-measured report at quick scale.
report:
	$(GO) run ./cmd/experiments -scale quick -domain puzzle report > docs/report_quick.md

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
