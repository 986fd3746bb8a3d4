// Command simdsearch runs a single parallel tree search on the simulated
// SIMD machine and reports the paper's Section 3.1 statistics.
//
// Examples:
//
//	simdsearch -domain puzzle -scramble 42 -steps 40 -scheme GP-DK -p 1024
//	simdsearch -domain synthetic -w 1000000 -scheme nGP-S0.80 -p 8192
//	simdsearch -domain queens -n 11 -scheme GP-S0.90 -p 256 -topology mesh
//
// Long runs survive interruption: -checkpoint FILE writes a crash-safe
// snapshot every -every cycles (and a final one when the run is
// interrupted), and -resume FILE continues such a run to the exact same
// statistics an uninterrupted run would have produced:
//
//	simdsearch -domain synthetic -w 100000000 -checkpoint run.ckpt -every 10000
//	simdsearch -domain synthetic -w 100000000 -resume run.ckpt -checkpoint run.ckpt -every 10000
//
// The process exits 0 only on a completed run; see the -help text for the
// full exit-code contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"simdtree/internal/checkpoint"
	"simdtree/internal/metrics"
	"simdtree/internal/mimd"
	"simdtree/internal/puzzle"
	"simdtree/internal/queens"
	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/spill"
	"simdtree/internal/synthetic"
	"simdtree/internal/topology"
	"simdtree/internal/trace"
	"simdtree/internal/wire"
)

// Exit codes.  Scripts and health checks rely on these; -help documents
// them.
const (
	exitOK          = 0   // run completed
	exitError       = 1   // runtime or configuration error
	exitUsage       = 2   // invalid flags (written by package flag)
	exitInterrupted = 130 // SIGINT: stopped at a cycle boundary (128+SIGINT)
)

func main() {
	err := run()
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "simdsearch:", err)
	if errors.Is(err, context.Canceled) {
		os.Exit(exitInterrupted)
	}
	os.Exit(exitError)
}

// ckptConfig carries the checkpoint flags plus the identity fields a
// resumed run must match.
type ckptConfig struct {
	write  string // file to write checkpoints to ("" = off)
	every  int    // cycle cadence for periodic checkpoints
	resume string // file to resume from ("" = fresh run)
	domain string // canonical domain description, pinned in Meta.Domain
	topo   string // topology name, pinned in Meta.Topology
}

func (c ckptConfig) enabled() bool { return c.write != "" || c.resume != "" }

func run() error {
	var (
		domain   = flag.String("domain", "puzzle", "problem domain: puzzle, synthetic or queens")
		scheme   = flag.String("scheme", "GP-DK", "load-balancing scheme, e.g. GP-S0.90, nGP-DP, GP-DK")
		p        = flag.Int("p", 1024, "number of simulated processors")
		workers  = flag.Int("workers", 0, "goroutines per simulated cycle (0 = sequential)")
		topoName = flag.String("topology", "cm2", "interconnect: cm2, hypercube, mesh or crossbar")
		lbScale  = flag.Float64("lbscale", 1, "multiplier on load-balancing cost (Table 5 style)")
		stop     = flag.Bool("stop", false, "stop at the first goal instead of searching exhaustively")
		showTr   = flag.Bool("trace", false, "print the per-cycle active-processor trace")
		progress = flag.Int("progress", 0, "print a liveness line to stderr every N cycles (0 = off)")

		engine    = flag.String("engine", "simd", "execution model: simd (the paper's lock-step machine) or mimd (work stealing: scheme GRR, ARR or RP)")
		memBudget = flag.Int64("mem-budget", 0, "memory budget in bytes for simulated stack storage (0 = unbounded); cold stack levels spill to a temp directory and fault back on demand, with identical results")
		ida       = flag.Bool("ida", false, "puzzle: run complete parallel IDA* (all iterations on the machine) instead of only the final bounded iteration")
		lc        = flag.Bool("lc", false, "puzzle: use the Manhattan+linear-conflict heuristic (smaller W, costlier bound)")

		cpuProfile = flag.String("pprof", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file when the run finishes")

		ckptPath   = flag.String("checkpoint", "", "write a resumable checkpoint to this file every -every cycles, plus a final one on interrupt")
		ckptEvery  = flag.Int("every", 1000, "checkpoint cadence in expansion cycles (with -checkpoint)")
		resumePath = flag.String("resume", "", "resume an interrupted run from this checkpoint file (domain, scheme and -p must match)")

		scramble = flag.Uint64("scramble", 1, "puzzle: scramble seed")
		steps    = flag.Int("steps", 40, "puzzle: scramble walk length")
		bound    = flag.Int("bound", 0, "puzzle: explicit IDA* cost bound (0 = bound of the first solving iteration)")

		w    = flag.Int64("w", 100000, "synthetic: exact tree size")
		seed = flag.Uint64("seed", 7, "synthetic: tree seed")
		n    = flag.Int("n", 10, "queens: board size")
	)
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: simdsearch [flags]\n\nflags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(out, `
exit codes:
  %3d  run completed
  %3d  runtime or configuration error
  %3d  invalid flags
  %3d  interrupted (SIGINT): the run stopped at a cycle boundary after
       printing the statistics of the completed prefix; with -checkpoint,
       a final checkpoint was written first, so -resume loses no work
`, exitOK, exitError, exitUsage, exitInterrupted)
	}
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}

	if *memBudget > 0 {
		if *engine != "simd" {
			return fmt.Errorf("-mem-budget requires -engine simd (the %s engine has no spillable stack arena)", *engine)
		}
		if *ida {
			return fmt.Errorf("-mem-budget is not supported with -ida (the iteration driver builds its machines internally)")
		}
	}

	cfg := ckptConfig{write: *ckptPath, every: *ckptEvery, resume: *resumePath, topo: *topoName}
	if cfg.enabled() {
		if *engine != "simd" {
			return fmt.Errorf("-checkpoint/-resume require -engine simd (the %s engine has no cycle boundaries to snapshot at)", *engine)
		}
		if cfg.every <= 0 {
			return fmt.Errorf("-every must be positive, got %d", cfg.every)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "simdsearch: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "simdsearch: memprofile:", err)
			}
		}()
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	net, err := topology.ByName(*topoName)
	if err != nil {
		return err
	}
	opts := simd.Options{P: *p, Workers: *workers, Topology: net, StopAtFirstGoal: *stop, MemBudget: *memBudget}
	opts.Costs = simd.CM2Costs()
	opts.Costs.LBScale = *lbScale
	var tr *trace.Trace
	if *showTr {
		tr = &trace.Trace{}
		opts.Trace = tr
	}
	if *progress > 0 {
		opts.ProgressEvery = *progress
		opts.Progress = func(p simd.ProgressInfo) {
			fmt.Fprintf(os.Stderr, "  cycle %d: active=%d W=%d phases=%d Tpar=%v E=%.3f\n",
				p.Stats.Cycles, p.Active, p.Stats.W, p.Stats.LBPhases, p.Stats.Tpar, p.Stats.Efficiency())
		}
	}

	var stats metrics.Stats
	switch *domain {
	case "puzzle":
		inst := puzzle.Scramble(*scramble, *steps)
		fmt.Println("start position:")
		fmt.Println(inst)
		var dom search.CostDomain[puzzle.Node] = puzzle.NewDomain(inst)
		if *lc {
			dom = puzzle.NewDomainLC(inst)
		}
		if *ida {
			cfg.domain = fmt.Sprintf("puzzle-ida scramble=%d steps=%d lc=%t", *scramble, *steps, *lc)
			stats, err = runIDAStar(ctx, dom, *scheme, opts, cfg)
			break
		}
		b := *bound
		var serialW int64
		if b == 0 {
			b, serialW = search.FinalIterationBound(dom)
		} else {
			serialW = search.DFS[puzzle.Node](search.NewBounded(dom, b)).Expanded
		}
		fmt.Printf("cost bound %d, serial W = %d\n", b, serialW)
		cfg.domain = fmt.Sprintf("puzzle scramble=%d steps=%d lc=%t bound=%d", *scramble, *steps, *lc, b)
		stats, err = runScheme(ctx, search.NewBounded(dom, b), wire.PuzzleCodec{}, *scheme, opts, *engine, cfg)
	case "synthetic":
		cfg.domain = fmt.Sprintf("synthetic w=%d seed=%d", *w, *seed)
		stats, err = runScheme(ctx, synthetic.New(*w, *seed), wire.SyntheticCodec{}, *scheme, opts, *engine, cfg)
	case "queens":
		cfg.domain = fmt.Sprintf("queens n=%d", *n)
		stats, err = runScheme(ctx, queens.New(*n), wire.QueensCodec{}, *scheme, opts, *engine, cfg)
	default:
		err = fmt.Errorf("unknown domain %q", *domain)
	}
	if err != nil && !stats.Cancelled {
		return err
	}

	fmt.Println(stats)
	fmt.Printf("  Tpar=%v Tcalc=%v Tidle=%v Tlb=%v\n", stats.Tpar, stats.Tcalc, stats.Tidle, stats.Tlb)
	fmt.Printf("  init: %d cycles, %d phases; peak stack %d nodes; largest transfer %d nodes\n",
		stats.InitCycles, stats.InitPhases, stats.PeakStack, stats.MaxTransfer)
	if tr != nil {
		min, at := tr.MinActive()
		fmt.Printf("  trace: %d samples, min active %d at cycle %d\n", len(tr.Samples), min, at)
		stride := len(tr.Samples)/40 + 1
		for i, s := range tr.Samples {
			if i%stride == 0 {
				fmt.Printf("  cycle %5d  active %6d\n", s.Cycle, s.Active)
			}
		}
	}
	if err != nil {
		// Interrupted: the numbers above are the completed prefix only.
		return fmt.Errorf("run interrupted after %d cycles: %w", stats.Cycles, err)
	}
	return nil
}

// meta builds the identity header pinned into every checkpoint this
// invocation writes, and checked against every checkpoint it resumes.
func (c ckptConfig) meta(label string) checkpoint.Meta {
	return checkpoint.Meta{Domain: c.domain, Scheme: label, Topology: c.topo}
}

// check verifies that a checkpoint belongs to this invocation's
// configuration before any state is restored.
func (c ckptConfig) check(meta checkpoint.Meta, label string, p int) error {
	want := c.meta(label)
	if meta.Domain != want.Domain || meta.Scheme != want.Scheme || meta.Topology != want.Topology || meta.P != p {
		return fmt.Errorf("checkpoint %s was taken for {%s, scheme %s, topology %s, p %d}; flags say {%s, scheme %s, topology %s, p %d}",
			c.resume, meta.Domain, meta.Scheme, meta.Topology, meta.P, want.Domain, want.Scheme, want.Topology, p)
	}
	return nil
}

func runScheme[S any](ctx context.Context, d search.Domain[S], codec wire.Codec[S], label string, opts simd.Options, engine string, cfg ckptConfig) (metrics.Stats, error) {
	switch engine {
	case "simd":
		sch, err := simd.ParseScheme[S](label)
		if err != nil {
			return metrics.Stats{}, err
		}
		if cfg.write != "" {
			opts.CheckpointEvery = cfg.every
		}
		m, err := simd.NewMachine[S](d, sch, opts)
		if err != nil {
			return metrics.Stats{}, err
		}
		if opts.MemBudget > 0 {
			mgr, done, err := spill.Attach(m, codec, d.Root(), opts.MemBudget, "")
			if err != nil {
				return metrics.Stats{}, err
			}
			defer done()
			defer func() {
				st := mgr.Stats()
				fmt.Fprintf(os.Stderr, "simdsearch: spill: %d evictions, %d faults, %d bytes written, %d read, peak resident %d nodes\n",
					st.Evictions, st.Faults, st.BytesWritten, st.BytesRead, st.PeakResident)
			}()
		}
		if cfg.resume != "" {
			meta, snap, err := checkpoint.ReadFile[S](cfg.resume, codec)
			if err != nil {
				return metrics.Stats{}, err
			}
			if err := cfg.check(meta, label, opts.P); err != nil {
				return metrics.Stats{}, err
			}
			if snap.IDA != nil {
				return metrics.Stats{}, fmt.Errorf("checkpoint %s holds an IDA* run; resume it with -ida", cfg.resume)
			}
			if err := m.RestoreSnapshot(snap); err != nil {
				return metrics.Stats{}, err
			}
			fmt.Printf("resumed from %s at cycle %d\n", cfg.resume, snap.Cycle)
		}
		if cfg.write != "" {
			m.OnCheckpoint(func(s *simd.Snapshot[S]) error {
				return checkpoint.WriteFile[S](cfg.write, codec, cfg.meta(label), s)
			})
		}
		st, runErr := m.RunContext(ctx)
		if runErr != nil && st.Cancelled && cfg.write != "" {
			if snap, err := m.Snapshot(); err == nil {
				if err := checkpoint.WriteFile[S](cfg.write, codec, cfg.meta(label), snap); err != nil {
					return st, errors.Join(runErr, err)
				}
				fmt.Fprintf(os.Stderr, "simdsearch: wrote checkpoint %s at cycle %d\n", cfg.write, snap.Cycle)
			}
		}
		if runErr == nil && cfg.write != "" {
			// The run completed; a periodic checkpoint left behind would
			// only invite resuming a finished run.
			if err := os.Remove(cfg.write); err != nil && !errors.Is(err, os.ErrNotExist) {
				fmt.Fprintf(os.Stderr, "simdsearch: removing stale checkpoint: %v\n", err)
			}
		}
		return st, runErr
	case "mimd":
		pol, err := mimd.ParsePolicy(label)
		if err != nil {
			return metrics.Stats{}, fmt.Errorf("mimd engine wants -scheme GRR, ARR or RP: %w", err)
		}
		st, err := mimd.Run[S](d, mimd.Options{
			P:             opts.P,
			Policy:        pol,
			Topology:      opts.Topology,
			NodeExpansion: opts.Costs.NodeExpansion,
			TransferUnit:  opts.Costs.TransferUnit,
			Seed:          1,
		})
		return st.Stats, err
	}
	return metrics.Stats{}, fmt.Errorf("unknown engine %q", engine)
}

// runIDAStar executes the paper's complete algorithm: every IDA*
// iteration on the SIMD machine, printing the per-iteration progression.
// With -checkpoint/-resume the run checkpoints across iteration
// boundaries too.
func runIDAStar(ctx context.Context, dom search.CostDomain[puzzle.Node], label string, opts simd.Options, cfg ckptConfig) (metrics.Stats, error) {
	sch, err := simd.ParseScheme[puzzle.Node](label)
	if err != nil {
		return metrics.Stats{}, err
	}
	codec := wire.PuzzleCodec{}
	var resume *simd.Snapshot[puzzle.Node]
	if cfg.resume != "" {
		meta, snap, err := checkpoint.ReadFile[puzzle.Node](cfg.resume, codec)
		if err != nil {
			return metrics.Stats{}, err
		}
		if err := cfg.check(meta, label, opts.P); err != nil {
			return metrics.Stats{}, err
		}
		if snap.IDA == nil {
			return metrics.Stats{}, fmt.Errorf("checkpoint %s holds a single bounded run, not an IDA* run; resume it without -ida", cfg.resume)
		}
		resume = snap
		fmt.Printf("resumed from %s at iteration %d (bound %d), cycle %d\n", cfg.resume, snap.IDA.Iteration, snap.IDA.Bound, snap.Cycle)
	}
	var sink func(*simd.Snapshot[puzzle.Node]) error
	if cfg.write != "" {
		opts.CheckpointEvery = cfg.every
		sink = func(s *simd.Snapshot[puzzle.Node]) error {
			return checkpoint.WriteFile[puzzle.Node](cfg.write, codec, cfg.meta(label), s)
		}
	}
	res, runErr := simd.RunIDAStarCheckpointed[puzzle.Node](ctx, dom, sch, opts, 0, resume, sink)
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		return res.Stats, runErr
	}
	if runErr != nil && cfg.write != "" {
		fmt.Fprintf(os.Stderr, "simdsearch: wrote checkpoint %s\n", cfg.write)
	}
	if runErr == nil && cfg.write != "" {
		if err := os.Remove(cfg.write); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "simdsearch: removing stale checkpoint: %v\n", err)
		}
	}
	fmt.Printf("parallel IDA*: %d iterations, final bound %d\n", len(res.Iterations), res.Bound)
	for _, it := range res.Iterations {
		fmt.Printf("  bound %2d: W=%-9d cycles=%-6d phases=%-5d E=%.3f\n",
			it.Bound, it.Stats.W, it.Stats.Cycles, it.Stats.LBPhases, it.Stats.Efficiency())
	}
	return res.Stats, runErr
}
