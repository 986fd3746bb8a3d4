// Command simdbench runs the pinned benchmark scenarios of internal/bench
// and emits a machine-readable baseline (BENCH_<n>.json) recording the
// repository's performance trajectory: wall-clock and allocation cost per
// scenario plus the schedule quantities (W, cycles, LB phases) that prove
// the run executed the exact pinned schedule.
//
// With -compare it checks a fresh measurement against a committed baseline
// and exits non-zero when the schedule drifted (W/cycles/phases differ — a
// determinism bug, never tolerated) or allocations regressed beyond the
// tolerance.  Wall-clock time is compared per scenario against the
// baseline's ns/op and reported, but only gated with -time, since shared
// CI runners make it noisy.  The per-scenario Workers ratio is gated on any
// host as an overhead bound: asking for eight workers must never cost more
// than a tenth of the Workers=1 speed, however few CPUs there are.
//
// Usage:
//
//	simdbench [-short] [-out FILE] [-compare FILE] [-tolerance 0.15] [-time]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"simdtree/internal/bench"
)

// Result is one scenario's measurement.
type Result struct {
	bench.Scenario
	Iterations  int   `json:"iterations"`
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	TotalW      int64 `json:"total_w"`
	Cycles      int   `json:"cycles"`
	LBPhases    int   `json:"lb_phases"`
	// Spill traffic of one op under the scenario's MemBudget (zero for
	// unbounded scenarios).  Eviction and fault counts are part of the
	// deterministic schedule — a drift is a correctness bug like a W
	// drift; the byte volumes price the residency manager's disk I/O.
	SpillEvictions         int64 `json:"spill_evictions,omitempty"`
	SpillFaults            int64 `json:"spill_faults,omitempty"`
	SpillBytesWrittenPerOp int64 `json:"spill_bytes_written_per_op,omitempty"`
	SpillBytesReadPerOp    int64 `json:"spill_bytes_read_per_op,omitempty"`
	// SpeedupW8OverW1 is the wall-clock ratio of this scenario at
	// Workers=1 over the same configuration at Workers=8 (see
	// fastestRatio) — about 1.0 where the shards serialise or the cycles
	// are too small to share.  Scenarios pinned at Workers>1 omit it.
	SpeedupW8OverW1 float64 `json:"speedup_w8_over_w1,omitempty"`
}

// Baseline is the BENCH_<n>.json document.  It deliberately carries no
// timestamp so a committed baseline only changes when the measurements do.
type Baseline struct {
	Schema    int      `json:"schema"`
	GoVersion string   `json:"go"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	CPUs      int      `json:"cpus"`
	Short     bool     `json:"short,omitempty"`
	Note      string   `json:"note,omitempty"`
	Scenarios []Result `json:"scenarios"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simdbench:", err)
		os.Exit(1)
	}
}

func run() error {
	short := flag.Bool("short", false, "one measured iteration per scenario (CI smoke mode)")
	out := flag.String("out", "", "write the baseline JSON to this file (default stdout)")
	compare := flag.String("compare", "", "compare against this committed baseline and fail on regression")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional allocs/op regression")
	gateTime := flag.Bool("time", false, "also gate ns/op against the baseline (noisy on shared runners)")
	flag.Parse()

	base := Baseline{
		Schema:    4,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Short:     *short,
	}
	if base.CPUs < 4 {
		base.Note = "fewer than 4 CPUs: speedup_w8_over_w1 is an overhead ratio (gated at 0.90), not a parallel speed-up; no point with 4 or more CPUs has been recorded"
	}
	for _, sc := range bench.Scenarios() {
		iters := iterations(sc.Name, *short)
		res, err := measure(sc, iters)
		if err != nil {
			return err
		}
		base.Scenarios = append(base.Scenarios, res)
		fmt.Fprintf(os.Stderr, "%-18s %10s/op  %8d allocs/op  %10d B/op  cycles=%d phases=%d\n",
			sc.Name, time.Duration(res.NsPerOp), res.AllocsPerOp, res.BytesPerOp, res.Cycles, res.LBPhases)
	}
	if err := fillScenarioSpeedups(&base); err != nil {
		return err
	}

	enc, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			return err
		}
	} else if _, err := os.Stdout.Write(enc); err != nil {
		return err
	}

	if *compare != "" {
		return gate(base, *compare, *tolerance, *gateTime)
	}
	return nil
}

// speedupFloor is the least Workers=1 over Workers=8 wall-clock ratio the
// gate accepts, speedupReps the runs a side one measurement takes, and
// speedupTries the measurements a scenario gets to reach the floor: a costly
// pool reads low every time, a busy neighbour on a shared host does not.
const (
	speedupFloor = 0.90
	speedupReps  = 5
	speedupTries = 3
)

// fillScenarioSpeedups records, for every Workers=1 scenario, the wall-clock
// ratio over the same configuration at Workers=8 (the same schedule, by the
// determinism contract, so only its wall-clock matters).
func fillScenarioSpeedups(base *Baseline) error {
	for i, r := range base.Scenarios {
		if r.Workers != 1 {
			continue
		}
		w8 := r.Scenario
		w8.Workers = 8
		best := 0.0
		for try := 0; try < speedupTries && best < speedupFloor; try++ {
			ratio, err := fastestRatio(r.Scenario, w8)
			if err != nil {
				return err
			}
			best = max(best, ratio)
		}
		base.Scenarios[i].SpeedupW8OverW1 = best
		fmt.Fprintf(os.Stderr, "%-18s workers speedup (w1/w8): %.2fx\n", r.Name, best)
	}
	return nil
}

// fastestRatio runs a and b alternately, speedupReps times each after a
// warm-up, and returns a's fastest run over b's: the scenarios take
// milliseconds, and a mean over so few runs measures the host's other tenants.
func fastestRatio(a, b bench.Scenario) (float64, error) {
	best := [2]time.Duration{1 << 62, 1 << 62}
	for rep := 0; rep <= speedupReps; rep++ { // rep 0 is the warm-up
		for side, sc := range []bench.Scenario{a, b} {
			runtime.GC() // the other side's garbage is not this run's to collect
			t0 := time.Now()
			if _, _, err := sc.RunSpill(); err != nil {
				return 0, err
			}
			if d := time.Since(t0); rep > 0 && d < best[side] {
				best[side] = d
			}
		}
	}
	return float64(best[0]) / float64(best[1]), nil
}

// iterations picks the measured iteration count per scenario: the micro
// scenarios are cheap and get more samples; the full-scale table5 pair is
// two orders of magnitude heavier.
func iterations(name string, short bool) int {
	if short {
		return 1
	}
	switch name {
	case bench.Table5W1, bench.Table5W8:
		return 3
	default:
		return 10
	}
}

// measure runs the scenario iters times after one warm-up run and derives
// per-op cost from runtime.MemStats deltas, the same accounting
// testing.B.ReportAllocs uses (mallocs and total bytes are monotonic
// counters).
func measure(sc bench.Scenario, iters int) (Result, error) {
	stats, sst, err := sc.RunSpill() // warm-up: page in the code path, size the caches
	if err != nil {
		return Result{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if stats, sst, err = sc.RunSpill(); err != nil {
			return Result{}, err
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	return Result{
		Scenario:    sc,
		Iterations:  iters,
		NsPerOp:     elapsed.Nanoseconds() / int64(iters),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
		TotalW:      stats.W,
		Cycles:      stats.Cycles,
		LBPhases:    stats.LBPhases,
		// The counters are per run, not cumulative: RunSpill builds a
		// fresh manager each op, so the last iteration's numbers are the
		// per-op numbers.
		SpillEvictions:         sst.Evictions,
		SpillFaults:            sst.Faults,
		SpillBytesWrittenPerOp: sst.BytesWritten,
		SpillBytesReadPerOp:    sst.BytesRead,
	}, nil
}

// gate compares cur against the committed baseline at path and returns an
// error describing every regression found.
func gate(cur Baseline, path string, tolerance float64, gateTime bool) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var ref Baseline
	if err := json.Unmarshal(raw, &ref); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	byName := make(map[string]Result, len(cur.Scenarios))
	for _, r := range cur.Scenarios {
		byName[r.Name] = r
	}
	var fails []string
	for _, want := range ref.Scenarios {
		got, ok := byName[want.Name]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s: scenario missing from current run", want.Name))
			continue
		}
		// Schedule quantities are deterministic: any drift is a
		// correctness bug, not a perf regression, and has no tolerance.
		if got.TotalW != want.TotalW || got.Cycles != want.Cycles || got.LBPhases != want.LBPhases {
			fails = append(fails, fmt.Sprintf("%s: schedule drifted: W=%d cycles=%d phases=%d, baseline W=%d cycles=%d phases=%d",
				want.Name, got.TotalW, got.Cycles, got.LBPhases, want.TotalW, want.Cycles, want.LBPhases))
			continue
		}
		// Spill traffic under a fixed budget is as deterministic as the
		// schedule: the eviction sweep and fault barrier run at fixed
		// points of a fixed schedule.
		if got.SpillEvictions != want.SpillEvictions || got.SpillFaults != want.SpillFaults {
			fails = append(fails, fmt.Sprintf("%s: spill traffic drifted: evictions=%d faults=%d, baseline evictions=%d faults=%d",
				want.Name, got.SpillEvictions, got.SpillFaults, want.SpillEvictions, want.SpillFaults))
			continue
		}
		if limit := float64(want.AllocsPerOp) * (1 + tolerance); float64(got.AllocsPerOp) > limit && got.AllocsPerOp > want.AllocsPerOp+64 {
			fails = append(fails, fmt.Sprintf("%s: allocs/op %d exceeds baseline %d by more than %.0f%%",
				want.Name, got.AllocsPerOp, want.AllocsPerOp, tolerance*100))
		}
		// Wall-clock is always compared and reported; it only fails the
		// gate with -time.
		if want.NsPerOp > 0 {
			delta := 100 * (float64(got.NsPerOp) - float64(want.NsPerOp)) / float64(want.NsPerOp)
			fmt.Fprintf(os.Stderr, "%-18s %10s/op vs baseline %10s/op (%+.1f%%)\n",
				want.Name, time.Duration(got.NsPerOp), time.Duration(want.NsPerOp), delta)
			if gateTime && float64(got.NsPerOp) > float64(want.NsPerOp)*(1+tolerance) {
				fails = append(fails, fmt.Sprintf("%s: ns/op %d exceeds baseline %d by more than %.0f%%",
					want.Name, got.NsPerOp, want.NsPerOp, tolerance*100))
			}
		}
		// Asking for workers must not cost speed, on any host: under the
		// floor, work too small to share was handed to the pool anyway.
		if got.SpeedupW8OverW1 > 0 && got.SpeedupW8OverW1 < speedupFloor {
			fails = append(fails, fmt.Sprintf("%s: Workers=8 runs at %.2fx the Workers=1 speed, under the %.2fx floor",
				want.Name, got.SpeedupW8OverW1, speedupFloor))
		}
	}
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "REGRESSION:", f)
		}
		return fmt.Errorf("%d regression(s) against %s", len(fails), path)
	}
	fmt.Fprintf(os.Stderr, "no regressions against %s\n", path)
	return nil
}
