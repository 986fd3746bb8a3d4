# Development entry points.  Everything is standard-library Go; no
# external dependencies.  "make lint" runs go vet plus the repo's own
# simdlint analyzers (cmd/simdlint), which enforce the determinism
# invariants documented in DESIGN.md; it is part of the default target.

GO ?= go

.PHONY: all build test test-race bench bench-go bench-check mutants mark loc fuzz vet lint discipline fmt serve fleet experiments-quick experiments-full report clean

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
# hold are tests, in "make test"), the structure-of-arrays micro-benchmarks,
# a cache hit through a node's frontend, a finished job's history
# entry, the spill sweep and fault barrier, and the synthetic tree
# generator's expansion.
bench:
	$(GO) test -run '^$$' -bench BenchmarkPinnedRun -benchmem ./internal/simd
	$(GO) test -run '^$$' -bench 'BenchmarkFlagFill|BenchmarkMatchBits|BenchmarkArenaTransfer|BenchmarkArenaFirstReceive|BenchmarkExpandKernel|BenchmarkArenaHeld|BenchmarkCacheHit|BenchmarkJobRecord' -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkSweepThrash|BenchmarkFaultBarrier' -benchmem ./internal/spill
	$(GO) test -run '^$$' -bench BenchmarkSyntheticExpand -benchmem ./internal/synthetic

# CI smoke variant: the small-P pool run at Workers 1 and 2, plus the
# structure-of-arrays micro-benchmarks (allocs/op must stay 0;
# BenchmarkExpandKernel fails itself when a steady-state cycle allocates,
# BenchmarkArenaHeld when reading the stack-size histogram does,
# BenchmarkMatchBits when a matching phase does, BenchmarkFlagFill when a
# flag fill does, BenchmarkArenaTransfer when a warmed-up transfer does,
# BenchmarkSweepThrash when a warmed-up evict/fault sweep does or writes
# the log more than once, BenchmarkFaultBarrier when a Barrier restoring
# one window's frames does or reads the log more than once,
# BenchmarkArenaFirstReceive when a fresh arena's first receives allocate
# per PE instead of per flag word, BenchmarkCacheHit when a cache hit
# allocates over its ceiling, BenchmarkJobRecord when a finished job's
# history entry keeps more live heap than its ceiling,
# BenchmarkSyntheticExpand when a synthetic node's expansion does).
bench-check:
	$(GO) test -run '^$$' -bench 'BenchmarkPinnedRun/pool-small-p' -benchtime 100x -benchmem ./internal/simd
	$(GO) test -run '^$$' -bench 'BenchmarkFlagFill|BenchmarkMatchBits|BenchmarkArenaTransfer|BenchmarkArenaFirstReceive|BenchmarkExpandKernel|BenchmarkArenaHeld|BenchmarkCacheHit|BenchmarkJobRecord' -benchtime 100x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkSweepThrash|BenchmarkFaultBarrier' -benchtime 100x -benchmem ./internal/spill
	$(GO) test -run '^$$' -bench BenchmarkSyntheticExpand -benchtime 100x -benchmem ./internal/synthetic

# The planted mutants: faults in the batched schedule, the GP matcher, the
# splitters, the PE-record mutators, a finished job's frozen event log and
# the job history that the referees must catch.  Each subtest passes when its mutant is
# caught and fails when it survives.
mutants:
	$(GO) test -count=1 -run 'TestPlantedMutants|TestArenaMutatorRuns' ./internal/simd ./internal/stack ./internal/server -args -mutants

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
# capped: the default minute would eat the burst), the matchers against
# their flag-by-flag oracles, and the API's JSON writer against
# json.MarshalIndent.
fuzz:
	$(GO) test -run=xxx -fuzz FuzzDecodeStack -fuzztime 30s ./internal/wire
	$(GO) test -run=xxx -fuzz FuzzDecodeNode -fuzztime 15s ./internal/wire
	$(GO) test -run=xxx -fuzz FuzzFromTiles -fuzztime 15s ./internal/puzzle
	$(GO) test -run=xxx -fuzz FuzzDecodeCheckpoint -fuzztime 30s ./internal/checkpoint
	$(GO) test -run=xxx -fuzz FuzzDecodeStealFrame -fuzztime 30s ./internal/steal
	$(GO) test -run=xxx -fuzz FuzzDecodeSpillSegment -fuzztime 30s ./internal/spill
	$(GO) test -run=xxx -fuzz FuzzResidencySequence -fuzztime 30s -fuzzminimizetime 2s ./internal/spill
	$(GO) test -run=xxx -fuzz FuzzMatchBits -fuzztime 15s ./internal/match
	$(GO) test -run=xxx -fuzz FuzzIndentedJSON -fuzztime 15s ./internal/server

vet:
	$(GO) vet ./...

# Repo-specific static analysis: determinism (detrand, maporder), dropped
# errors (errdrop) and context propagation (ctxflow), each analyzer run
# one package at a time.  Lock copies are go vet's copylocks; the
# sync/atomic, sync.Pool and SSE producer rules are rows of the discipline
# table.  The hot path's zero-allocation contract is measured, not linted:
# the allocation tests in "make test" and the benchmarks in "make
# bench-check" fail on a steady-state allocation.
lint: vet discipline
	$(GO) run ./cmd/simdlint ./...

# The "written once" gates — frame-, api-, schedule-, shard-, match-,
# sync-, sse-, admit-, metrics-, owner- and progress-discipline — are
# one table of (name, patterns,
# allowed paths, message, expected count) in scripts/discipline.sh, which
# first proves every pattern still fires on a planted violation and then
# checks the tree.
discipline:
	@./scripts/discipline.sh selftest
	@./scripts/discipline.sh

fmt:
	gofmt -l -w .

# Run the HTTP search service on :8080 (see DESIGN.md section 9 and the
# README quickstart for the job API).
serve:
	$(GO) run ./cmd/simdserve

# Run a local fleet: coordinator on :18080 fronting FLEET_NODES spooled
# nodes on consecutive ports from FLEET_BASE_PORT (defaults 3 nodes on
# :18081-:18083; see DESIGN.md sections 12 and 15).  FLEET_STEAL=5s turns
# on cross-node work stealing: every 5s the coordinator asks one node to
# split a running job, and that node drives its shards on the others.
# Ctrl-C tears it down.
FLEET_NODES ?= 3
FLEET_BASE_PORT ?= 18081
FLEET_STEAL ?=

fleet:
	$(GO) build -o bin/simdserve ./cmd/simdserve
	$(GO) build -o bin/simdfleet ./cmd/simdfleet
	./scripts/fleet.sh -n $(FLEET_NODES) -p $(FLEET_BASE_PORT) $(if $(FLEET_STEAL),-s $(FLEET_STEAL))

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
