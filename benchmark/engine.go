package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/simd"
	"simdtree/internal/spill"
	"simdtree/internal/synthetic"
	"simdtree/internal/wire"
)

// engineShape is one engine workload: the machine, the scheme and the tree
// size of an op, where an op is one simd.NewMachine + RunContext.
type engineShape struct {
	P         int
	W         int64
	Scheme    string
	Workers   int
	MemBudget int64
	// Procs, when not 0, is the GOMAXPROCS the ops run under (see
	// pool-small-p in registry.go for why one workload sets it).
	Procs int
	// Trees is how many distinct trees, all derived from the run seed, the
	// ops of one run cycle through.  Tree shape moves cycles, phases and
	// transfers by a few percent; running several per seed keeps that from
	// reading as a difference between two runs of the same code.
	Trees int
	// WarmDiv divides W for the warm-up op of a set-up.
	WarmDiv int64
}

// scaled returns the shape at the given scale.  "short" is the smoke-test
// scale: W / 100, with the spill budget cut so evictions still happen.
func (s engineShape) scaled(scale string) engineShape {
	if scale == "short" {
		s.W /= 100
		s.MemBudget /= 4
		if s.Trees > 2 {
			s.Trees = 2
		}
	}
	return s
}

// opResult is what one engine op produced and how long it took.
type opResult struct {
	stats metrics.Stats
	spill spill.Stats
	wall  time.Duration
}

// engineRun holds the inputs one set-up generated.
type engineRun struct {
	seeds    []uint64
	spillDir string
}

// setUp generates the inputs of a run: tree seeds, the spill directory
// (see spillParent), and one warm-up op so code, heap and page cache are in
// their steady state before the first timed op.
func (s engineShape) setUp(ctx context.Context, root, scale string, stream uint64, seed int64) (*engineRun, error) {
	r := &engineRun{seeds: deriveSeeds(seed, stream, s.Trees)}
	if s.MemBudget > 0 {
		parent, err := spillParent(root, scale)
		if err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(parent, "simdmark-spill-*")
		if err != nil {
			return nil, err
		}
		r.spillDir = dir
	}
	warm := s
	warm.W /= s.WarmDiv
	if _, err := warm.op(ctx, r.seeds[0], r.spillDir, nil); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *engineRun) close() {
	if r.spillDir != "" {
		_ = os.RemoveAll(r.spillDir) //lint:allow errdrop best-effort removal of the run's own temp segments
	}
}

// options are the simd.Options of the shape's op.
func (s engineShape) options() simd.Options {
	return simd.Options{P: s.P, Workers: s.Workers, MemBudget: s.MemBudget}
}

// op runs one op on the tree of the given seed.  wrap, when non-nil,
// decorates the spill manager (the traced pass times it from outside).
func (s engineShape) op(ctx context.Context, treeSeed uint64, spillDir string, wrap func(simd.Spiller[synthetic.Node]) simd.Spiller[synthetic.Node]) (opResult, error) {
	start := time.Now()
	d := synthetic.New(s.W, treeSeed)
	sch, err := simd.ParseScheme[synthetic.Node](s.Scheme)
	if err != nil {
		return opResult{}, err
	}
	m, err := simd.NewMachine[synthetic.Node](d, sch, s.options())
	if err != nil {
		return opResult{}, err
	}
	var mgr *spill.Manager[synthetic.Node]
	if s.MemBudget > 0 {
		codec := wire.SyntheticCodec{}
		mgr, err = spill.NewManager[synthetic.Node](codec, spill.Config{
			Dir:       spillDir,
			MemBudget: s.MemBudget,
			NodeBytes: wire.NodeSize[synthetic.Node](codec, d.Root()),
		})
		if err != nil {
			return opResult{}, err
		}
		var sp simd.Spiller[synthetic.Node] = mgr
		if wrap != nil {
			sp = wrap(sp)
		}
		m.SetSpiller(sp)
	}
	st, err := m.RunContext(ctx)
	if err != nil {
		return opResult{}, err
	}
	res := opResult{stats: st, wall: time.Since(start)}
	if mgr != nil {
		res.spill = mgr.Stats()
	}
	return res, nil
}

// pin is the schedule of one (workload, tree) at the default seed, as
// benchmark/expected.json records it.
type pin struct {
	W          int64   `json:"w"`
	Cycles     int     `json:"cycles"`
	LBPhases   int     `json:"lb_phases"`
	Transfers  int     `json:"transfers"`
	Efficiency float64 `json:"efficiency"`
	Evictions  int64   `json:"evictions,omitempty"`
	Faults     int64   `json:"faults,omitempty"`
}

func pinOf(r opResult) pin {
	return pin{
		W: r.stats.W, Cycles: r.stats.Cycles, LBPhases: r.stats.LBPhases,
		Transfers: r.stats.Transfers, Efficiency: r.stats.Efficiency(),
		Evictions: r.spill.Evictions, Faults: r.spill.Faults,
	}
}

func (p pin) equal(q pin) bool {
	return p.W == q.W && p.Cycles == q.Cycles && p.LBPhases == q.LBPhases &&
		p.Transfers == q.Transfers && p.Evictions == q.Evictions && p.Faults == q.Faults &&
		math.Float64bits(p.Efficiency) == math.Float64bits(q.Efficiency)
}

// defaultSeed is the seed benchmark/expected.json was recorded at.
const defaultSeed = 1

//go:embed expected.json
var expectedJSON []byte

// expectedPins maps scale -> workload -> per-tree pins.
type expectedPins map[string]map[string][]pin

func loadExpected() (expectedPins, error) {
	var e expectedPins
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("benchmark/expected.json: %w", err)
	}
	return e, nil
}

// opChecker decides whether an op's output is correct.  At the default
// seed the schedule must equal expected.json; at any seed it must equal
// the first op on the same tree, expand exactly the requested W, and
// satisfy Tcalc + Tidle + Tlb = P * Tpar.
type opChecker struct {
	shape  engineShape
	pins   []pin // nil when the seed is not the default
	first  []*opResult
	failed int
	why    []string
}

func newOpChecker(name string, shape engineShape, cfg runConfig) (*opChecker, error) {
	c := &opChecker{shape: shape, first: make([]*opResult, shape.Trees)}
	if cfg.Seed != defaultSeed {
		return c, nil
	}
	e, err := loadExpected()
	if err != nil {
		return nil, err
	}
	c.pins = e[cfg.Scale][name]
	if len(c.pins) != shape.Trees {
		return nil, fmt.Errorf("benchmark/expected.json pins %d trees of %s at scale %s, the shape has %d; regenerate with -write-expected",
			len(c.pins), name, cfg.Scale, shape.Trees)
	}
	return c, nil
}

func (c *opChecker) fail(format string, args ...any) {
	c.failed++
	if len(c.why) < 5 {
		c.why = append(c.why, fmt.Sprintf(format, args...))
	}
}

// check records op r on tree t, counts it as failed if it is wrong, and
// reports whether it was right.
func (c *opChecker) check(t int, r opResult) bool {
	failed := c.failed
	switch {
	case r.stats.W != c.shape.W:
		c.fail("tree %d: expanded W=%d, requested %d", t, r.stats.W, c.shape.W)
	case r.stats.BalanceCheck() != 0:
		c.fail("tree %d: Tcalc+Tidle+Tlb differs from P*Tpar by %v", t, r.stats.BalanceCheck())
	case c.pins != nil && !pinOf(r).equal(c.pins[t]):
		c.fail("tree %d: schedule %+v differs from expected.json %+v", t, pinOf(r), c.pins[t])
	case c.first[t] != nil && (r.stats != c.first[t].stats || !pinOf(r).equal(pinOf(*c.first[t]))):
		c.fail("tree %d: stats differ between reps: %v vs %v", t, r.stats, c.first[t].stats)
	}
	if c.first[t] == nil {
		c.first[t] = &r
	}
	return c.failed == failed
}

// checkMode says which oracle the run had, for the printed report.
func (c *opChecker) checkMode() string {
	if c.pins != nil {
		return "outputs checked against benchmark/expected.json (default seed), rep-to-rep and the accounting identity"
	}
	return "non-default seed: expected.json does not apply; outputs checked rep-to-rep, against requested W and the accounting identity"
}

// A run sets up several times and reports the median as setup_s.  Engine
// set-ups take a fraction of a second and the first in a process is cold
// (page cache, tmpfs dentries), so they repeat five times; a service
// set-up starts a server and fills its history, and repeats three times.
const (
	engineSetups  = 5
	serviceSetups = 3
)

// repeatSetUp sets up n times, tearing all but the last down, and returns
// the last with the median set-up time.  It takes a host-speed sample
// before each.
func repeatSetUp[T any](sp *speedometer, n int, setUp func() (T, error), tearDown func(T)) (T, float64, error) {
	var keep T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		sp.sample()
		start := time.Now()
		r, err := setUp()
		if err != nil {
			return keep, 0, err
		}
		times = append(times, seconds(time.Since(start)))
		if i < n-1 {
			tearDown(r)
			continue
		}
		keep = r
	}
	return keep, median(times), nil
}

// setProcs sets GOMAXPROCS to n, or leaves it when n is 0, and returns the
// function that puts it back.
func setProcs(n int) (undo func()) {
	if n == 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(prev) }
}

// runEngine is the untraced pass of an engine workload: set up, then run
// ops back to back for the configured time and report the end-to-end
// metrics.
func runEngine(ctx context.Context, root string, stream uint64, wd *workloadDef, cfg runConfig) (*result, error) {
	shape := wd.engine.scaled(cfg.Scale)
	defer setProcs(shape.Procs)()
	chk, err := newOpChecker(wd.Name, shape, cfg)
	if err != nil {
		return nil, err
	}
	sp := &speedometer{}
	run, setupS, err := repeatSetUp(sp, engineSetups,
		func() (*engineRun, error) { return shape.setUp(ctx, root, cfg.Scale, stream, cfg.Seed) },
		(*engineRun).close)
	if err != nil {
		return nil, err
	}
	defer run.close()

	perTree := make([][]float64, shape.Trees)
	var all, rss []float64
	perOpRSS := true            // until the kernel refuses to reset VmHWM
	var wall, cpu time.Duration // of the ops alone, calibration left out
	t0 := time.Now()
	for ops := 0; ; ops++ {
		// Untimed, between ops: a host-speed sample, and a collection that
		// hands freed pages back, so every op starts from the heap a fresh
		// process would have (the researcher runs one op per process) and
		// peak RSS does not depend on when the previous op's garbage
		// happened to be collected or scavenged.
		sp.sample()
		debug.FreeOSMemory()
		if perOpRSS {
			perOpRSS = resetPeakRSS() == nil
		}
		t := ops % shape.Trees
		cpu0 := selfCPU()
		r, err := shape.op(ctx, run.seeds[t], run.spillDir, nil)
		if err != nil {
			return nil, err
		}
		cpu += selfCPU() - cpu0
		wall += r.wall
		if perOpRSS {
			mb, err := peakRSSMB(os.Getpid())
			if err != nil {
				return nil, err
			}
			rss = append(rss, mb)
		}
		lat := millis(r.wall)
		if !chk.check(t, r) {
			lat = failLatencyMS
		}
		perTree[t] = append(perTree[t], seconds(r.wall))
		all = append(all, lat)
		if ops+1 >= shape.Trees && time.Since(t0) >= cfg.phase() {
			break
		}
	}

	var sumMedians, eff float64
	for t := range perTree {
		sumMedians += median(perTree[t])
		eff += chk.first[t].stats.Efficiency()
	}
	if !perOpRSS {
		// No per-op peaks on this kernel: the process's peak stands in.
		mb, err := peakRSSMB(os.Getpid())
		if err != nil {
			return nil, err
		}
		rss = []float64{mb}
	}
	n := len(all)
	res := newResult(wd.Name, false, n, chk.failed)
	res.notes = append(res.notes, chk.checkMode(),
		fmt.Sprintf("latency_ms_tail is the %dth percentile of the %d ops", engineTailPercentile, n))
	if shape.Procs != 0 {
		res.notes = append(res.notes, fmt.Sprintf("set-ups and ops ran with GOMAXPROCS=%d", shape.Procs))
	}
	res.notes = append(res.notes, chk.why...)
	norm := sp.normalizer(res)
	norm.time("setup_s", setupS, engineSetups)
	norm.rate("nodes_per_s", float64(shape.W)*float64(shape.Trees)/sumMedians, n)
	res.set("sim_efficiency", eff/float64(shape.Trees), shape.Trees)
	norm.rate("jobs_per_s", float64(n)/seconds(wall), n)
	norm.time("latency_ms_p50", median(all), n)
	norm.time("latency_ms_tail", percentile(all, engineTailPercentile), n)
	norm.time("cpu_ms_per_op", millis(cpu)/float64(n), n)
	res.set("peak_rss_mb", median(rss), len(rss))
	res.set("ok_share", float64(n-chk.failed)/float64(n), n)
	return res, nil
}

// writeExpected regenerates benchmark/expected.json: one op per tree of
// every engine workload at both scales, at the default seed.
func writeExpected(ctx context.Context, root string) error {
	out := expectedPins{}
	for _, scale := range []string{"full", "short"} {
		out[scale] = map[string][]pin{}
		for i := range workloads {
			wd := &workloads[i]
			if wd.engine == nil {
				continue
			}
			shape := wd.engine.scaled(scale)
			run, err := shape.setUp(ctx, root, scale, uint64(i), defaultSeed)
			if err != nil {
				return err
			}
			for _, seed := range run.seeds {
				r, err := shape.op(ctx, seed, run.spillDir, nil)
				if err != nil {
					run.close()
					return err
				}
				out[scale][wd.Name] = append(out[scale][wd.Name], pinOf(r))
			}
			run.close()
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "benchmark", "expected.json"), append(b, '\n'), 0o644)
}
