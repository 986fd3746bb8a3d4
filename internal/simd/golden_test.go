package simd_test

import (
	"context"
	"runtime"
	"testing"

	"simdtree/internal/metrics"
	"simdtree/internal/simd"
	"simdtree/internal/spill"
	"simdtree/internal/synthetic"
	"simdtree/internal/wire"
)

// pinnedRun is one pinned configuration, a synthetic tree (w, seed) searched
// under one scheme at one machine size, and what its run must produce.  All
// of the configuration but memBudget fixes the schedule; a budget moves cold
// stack levels to disk and back at fixed points of it.
type pinnedRun struct {
	name, scheme string
	w            int64
	seed         uint64
	p, workers   int
	memBudget    int64

	cycles, phases, transfers int
	evictions, faults         int64
	// allocs is what one run, machine and spill manager included, allocated
	// on the commit that pinned it.
	allocs int64
}

// pinnedRuns is the one table of pinned runs:
//
//   - GP-S0.90 … GP-DP: the reference run, one row per scheme family.
//   - expansion-cycle: S^0.00 never balances, so the run is expansion
//     cycles only, the per-cycle hot path in isolation.
//   - expansion-wide{,-w8}: the paper's P = 8192, where one cycle's sweep
//     over the per-PE stacks does not fit a 2 MB L2.  At eight workers it is
//     the one row whose cycles and rounds are big enough to wake the pool,
//     so its allocation ceiling covers the pool's dispatch.
//   - lb-phase: S^1.00 balances after every cycle, so matching, splitting
//     and transfers dominate.
//   - table5-p1024-w{1,8}: the paper's Table 5 shape at one and at eight
//     host workers.
//   - spill-{tight,unbounded}: one run with and without a budget of three
//     11-byte nodes a PE; the schedules are equal and the tight run's
//     evictions and faults are as deterministic as its cycles.
//   - pool-small-p: simdmark's pool-small-p at a twentieth of its size,
//     every cycle too small to share, so Workers 2 must cost what Workers 1
//     costs (ns/cycle).
//
// Change a schedule column only alongside a DESIGN.md note explaining the
// behavioural change.  A row whose cycles are 0 is in bootstrap mode:
// TestGoldenSchedule logs the values to pin.
var pinnedRuns = []pinnedRun{
	{name: "GP-S0.90", scheme: "GP-S0.90", w: 40000, seed: 0x60D, p: 256, workers: 1, cycles: 189, phases: 91, transfers: 3964, allocs: 324},
	{name: "nGP-S0.90", scheme: "nGP-S0.90", w: 40000, seed: 0x60D, p: 256, workers: 1, cycles: 197, phases: 112, transfers: 7076, allocs: 269},
	{name: "GP-DK", scheme: "GP-DK", w: 40000, seed: 0x60D, p: 256, workers: 1, cycles: 200, phases: 66, transfers: 3528, allocs: 322},
	{name: "GP-DP", scheme: "GP-DP", w: 40000, seed: 0x60D, p: 256, workers: 1, cycles: 205, phases: 56, transfers: 3926, allocs: 319},
	{name: "expansion-cycle", scheme: "GP-S0.00", w: 10_000, seed: 11, p: 256, workers: 1, cycles: 10000, allocs: 24},
	{name: "expansion-wide", scheme: "GP-DK", w: 400_000, seed: 5, p: 8192, workers: 1, cycles: 98, phases: 62, transfers: 85815, allocs: 3076},
	{name: "expansion-wide-w8", scheme: "GP-DK", w: 400_000, seed: 5, p: 8192, workers: 8, cycles: 98, phases: 62, transfers: 85815, allocs: 3122},
	{name: "lb-phase", scheme: "GP-S1.00", w: 10_000, seed: 11, p: 256, workers: 1, cycles: 67, phases: 51, transfers: 2745, allocs: 108},
	{name: "table5-p1024-w1", scheme: "GP-S0.85", w: 400_000, seed: 3, p: 1024, workers: 1, cycles: 458, phases: 114, transfers: 21200, allocs: 1683},
	{name: "table5-p1024-w8", scheme: "GP-S0.85", w: 400_000, seed: 3, p: 1024, workers: 8, cycles: 458, phases: 114, transfers: 21200, allocs: 1721},
	{name: "spill-tight", scheme: "GP-DK", w: 30_000, seed: 7, p: 256, workers: 1, memBudget: 8448, cycles: 161, phases: 64, transfers: 3789, evictions: 378, faults: 378, allocs: 513},
	{name: "spill-unbounded", scheme: "GP-DK", w: 30_000, seed: 7, p: 256, workers: 1, cycles: 161, phases: 64, transfers: 3789, allocs: 266},
	{name: "pool-small-p/workers=1", scheme: "GP-DK", w: 400_000, seed: 1, p: 256, workers: 1, cycles: 1680, phases: 214, transfers: 6591, allocs: 785},
	{name: "pool-small-p/workers=2", scheme: "GP-DK", w: 400_000, seed: 1, p: 256, workers: 2, cycles: 1680, phases: 214, transfers: 6591, allocs: 792},
}

// run searches the row's tree once and returns the run's statistics and,
// under a budget, its spill manager's counters.
func (r pinnedRun) run(tb testing.TB) (metrics.Stats, spill.Stats) {
	tb.Helper()
	sch, err := simd.ParseScheme[synthetic.Node](r.scheme)
	if err != nil {
		tb.Fatal(err)
	}
	tree := synthetic.New(r.w, r.seed)
	m, err := simd.NewMachine[synthetic.Node](tree, sch, simd.Options{P: r.p, Workers: r.workers, MemBudget: r.memBudget})
	if err != nil {
		tb.Fatal(err)
	}
	var mgr *spill.Manager[synthetic.Node]
	if r.memBudget > 0 {
		var done func()
		if mgr, done, err = spill.Attach(m, wire.SyntheticCodec{}, tree.Root(), r.memBudget, ""); err != nil {
			tb.Fatal(err)
		}
		defer done()
	}
	st, err := m.RunContext(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	if mgr == nil {
		return st, spill.Stats{}
	}
	return st, mgr.Stats()
}

// TestGoldenSchedule pins every row's run: W, cycles, LB phases, transfers
// and spill traffic exactly, since the simulator's value lies in its
// reproducibility and any change to matching, triggering, splitting, cost
// accounting, residency or the synthetic generator that moves them must be
// a conscious decision.  Every row must also keep the accounting identity
// Tcalc + Tidle + Tlb = P·Tpar exactly.  Outside -short a run may also
// allocate at most 1.15 times, or 64 more than, the pinned count.
func TestGoldenSchedule(t *testing.T) {
	for _, r := range pinnedRuns {
		t.Run(r.name, func(t *testing.T) {
			st, sst := r.run(t)
			if st.W != r.w {
				t.Fatalf("W=%d, want %d", st.W, r.w)
			}
			if res := st.BalanceCheck(); res != 0 {
				t.Errorf("Tcalc+Tidle+Tlb differs from P*Tpar by %v", res)
			}
			allocs := func() int64 { return runAllocs(t, r) }
			if r.cycles == 0 {
				t.Logf("cycles: %d, phases: %d, transfers: %d, evictions: %d, faults: %d, allocs: %d",
					st.Cycles, st.LBPhases, st.Transfers, sst.Evictions, sst.Faults, allocs())
				return
			}
			if st.Cycles != r.cycles || st.LBPhases != r.phases || st.Transfers != r.transfers {
				t.Errorf("schedule drifted: cycles=%d (want %d) phases=%d (want %d) transfers=%d (want %d)",
					st.Cycles, r.cycles, st.LBPhases, r.phases, st.Transfers, r.transfers)
			}
			if sst.Evictions != r.evictions || sst.Faults != r.faults {
				t.Errorf("spill traffic drifted: evictions=%d (want %d) faults=%d (want %d)",
					sst.Evictions, r.evictions, sst.Faults, r.faults)
			}
			if testing.Short() {
				return
			}
			if got := allocs(); got > r.allocs*115/100 && got > r.allocs+64 {
				t.Errorf("a run made %d allocations, over both 1.15x and 64 more than the pinned %d", got, r.allocs)
			}
		})
	}
}

// runAllocs is what one run of r allocates, averaged over three runs after
// the caller's warm-up.  It reads the Mallocs counter rather than using
// testing.AllocsPerRun, which sets GOMAXPROCS to 1 and so would never wake a
// Workers>1 row's pool.
func runAllocs(t *testing.T, r pinnedRun) int64 {
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		r.run(t)
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) / runs
}

// BenchmarkPinnedRun prices one whole run of every row, machine set-up and
// spill manager included, so an op is the same run at every b.N.
func BenchmarkPinnedRun(b *testing.B) {
	for _, r := range pinnedRuns {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			var cycles int
			for i := 0; i < b.N; i++ {
				st, _ := r.run(b)
				cycles = st.Cycles
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/cycle")
		})
	}
}
