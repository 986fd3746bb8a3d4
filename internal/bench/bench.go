// Package bench pins the benchmark scenarios the repository's performance
// trajectory is measured against.  The same scenario definitions drive the
// root-package micro-benchmarks (`go test -bench`) and cmd/simdbench, the
// harness that writes the committed BENCH_<n>.json baselines the CI
// regression gate compares new runs to.
//
// Scenarios are deliberately tiny compared to the paper's experiments:
// their point is a stable, deterministic per-operation cost (a run's cycle
// and transfer schedule is bit-for-bit reproducible), so regressions in
// allocation count or wall-clock time stand out against a committed
// baseline instead of drowning in workload noise.
package bench

import (
	"context"
	"fmt"

	"simdtree/internal/metrics"
	"simdtree/internal/simd"
	"simdtree/internal/spill"
	"simdtree/internal/synthetic"
	"simdtree/internal/wire"
)

// Scenario is one pinned benchmark configuration: a synthetic-tree search
// under a fixed scheme and machine size.  Every field participates in the
// deterministic schedule, so two runs of the same Scenario expand the same
// nodes in the same cycles.  MemBudget does NOT change the schedule — that
// is the residency manager's contract — only the eviction/fault traffic.
type Scenario struct {
	Name    string `json:"name"`
	Scheme  string `json:"scheme"`
	P       int    `json:"p"`
	Workers int    `json:"workers"`
	W       int64  `json:"w"`
	Seed    uint64 `json:"seed"`
	// MemBudget bounds resident stack bytes; 0 runs unbounded.  Budgeted
	// scenarios spill cold stack levels to a private temp directory.
	MemBudget int64 `json:"mem_budget,omitempty"`
}

// Run executes the scenario once and returns its Section 3.1 statistics.
func (sc Scenario) Run() (metrics.Stats, error) {
	stats, _, err := sc.RunSpill()
	return stats, err
}

// RunSpill executes the scenario once and also returns the residency
// manager's counters (zero for unbounded scenarios).
func (sc Scenario) RunSpill() (metrics.Stats, spill.Stats, error) {
	sch, err := simd.ParseScheme[synthetic.Node](sc.Scheme)
	if err != nil {
		return metrics.Stats{}, spill.Stats{}, fmt.Errorf("bench %s: %w", sc.Name, err)
	}
	tree := synthetic.New(sc.W, sc.Seed)
	opts := simd.Options{P: sc.P, Workers: sc.Workers, MemBudget: sc.MemBudget}
	m, err := simd.NewMachine[synthetic.Node](tree, sch, opts)
	if err != nil {
		return metrics.Stats{}, spill.Stats{}, fmt.Errorf("bench %s: %w", sc.Name, err)
	}
	var mgr *spill.Manager[synthetic.Node]
	if sc.MemBudget > 0 {
		var done func()
		mgr, done, err = spill.Attach(m, wire.SyntheticCodec{}, tree.Root(), sc.MemBudget, "")
		if err != nil {
			return metrics.Stats{}, spill.Stats{}, fmt.Errorf("bench %s: %w", sc.Name, err)
		}
		defer done()
	}
	//lint:allow ctxflow benchmark scenarios are never cancelled mid-measurement
	stats, err := m.RunContext(context.Background())
	if err != nil {
		return metrics.Stats{}, spill.Stats{}, fmt.Errorf("bench %s: %w", sc.Name, err)
	}
	var sst spill.Stats
	if mgr != nil {
		sst = mgr.Stats()
	}
	return stats, sst, nil
}

// Scenario names shared between bench_test.go, cmd/simdbench and the CI
// gate.  ExpansionCycle and LBPhase isolate the two halves of the engine's
// hot path; the Table5 pair measures the Workers wall-clock speedup at a
// full-scale machine size.
const (
	ExpansionCycle = "expansion-cycle"
	ExpansionWide  = "expansion-wide"
	LBPhase        = "lb-phase"
	Table5W1       = "table5-p1024-w1"
	Table5W8       = "table5-p1024-w8"
	SpillTight     = "spill-tight"
	SpillUnbounded = "spill-unbounded"
)

// Scenarios returns the pinned suite.
//
//   - expansion-cycle: S^0.00 never triggers a balancing phase, so the run
//     is node-expansion cycles only — the per-cycle hot path in isolation.
//   - expansion-wide: the paper's machine size (P = 8192) under GP-DK, where
//     one cycle's sweep over the per-PE stacks does not fit a 2 MB L2, so the
//     expansion kernel is priced with its cache misses, not only its
//     instructions.
//   - lb-phase: S^1.00 triggers after every cycle, so the run is dominated
//     by load-balancing phases (matching, splitting, transfer accounting).
//   - table5-p1024-w{1,8}: the paper's Table 5 shape (P = 1024, a
//     synthetic tree large enough that the machine saturates) at one and
//     at eight host workers; the ratio of their wall-clock times is the
//     Workers speedup simdbench reports.
//   - spill-{tight,unbounded}: the same deep synthetic run with and
//     without a memory budget.  The tight budget (three 11-byte nodes per
//     PE) forces thousands of evictions and faults, so the pair prices
//     the residency manager: the schedule columns must be identical
//     between the two, and the delta in ns/op and spill bytes/op is the
//     cost of running memory-bounded.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: ExpansionCycle, Scheme: "GP-S0.00", P: 256, Workers: 1, W: 10_000, Seed: 11},
		{Name: ExpansionWide, Scheme: "GP-DK", P: 8192, Workers: 1, W: 400_000, Seed: 5},
		{Name: LBPhase, Scheme: "GP-S1.00", P: 256, Workers: 1, W: 10_000, Seed: 11},
		{Name: Table5W1, Scheme: "GP-S0.85", P: 1024, Workers: 1, W: 400_000, Seed: 3},
		{Name: Table5W8, Scheme: "GP-S0.85", P: 1024, Workers: 8, W: 400_000, Seed: 3},
		{Name: SpillTight, Scheme: "GP-DK", P: 256, Workers: 1, W: 30_000, Seed: 7, MemBudget: 8448},
		{Name: SpillUnbounded, Scheme: "GP-DK", P: 256, Workers: 1, W: 30_000, Seed: 7},
	}
}

// ByName returns the named pinned scenario.
func ByName(name string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("bench: unknown scenario %q", name)
}
