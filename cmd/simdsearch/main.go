// Command simdsearch runs a single parallel tree search on the simulated
// SIMD machine and reports the paper's Section 3.1 statistics.
//
// Examples:
//
//	simdsearch -domain puzzle -scramble 42 -steps 40 -scheme GP-DK -p 1024
//	simdsearch -domain synthetic -w 1000000 -scheme nGP-S0.80 -p 8192
//	simdsearch -domain queens -n 11 -scheme GP-S0.90 -p 256 -topology mesh
//
// The flags name a job spec, the one a simdserve node accepts: domain and
// instance, scheme, -p, -topology and -stop.  The run is the node's own
// (server.RunSpec), and the CLI refuses what a node refuses.
//
// Long runs survive interruption: -checkpoint FILE writes a crash-safe
// snapshot every -every cycles (and a final one when the run is
// interrupted), and -resume FILE continues such a run to the exact same
// statistics an uninterrupted run would have produced:
//
//	simdsearch -domain synthetic -w 100000000 -checkpoint run.ckpt -every 10000
//	simdsearch -domain synthetic -w 100000000 -resume run.ckpt -checkpoint run.ckpt -every 10000
//
// A checkpoint records the canonical spec, so -resume refuses a file taken
// under other flags, and a node resumes it through POST /v1/jobs/import.
//
// The process exits 0 only on a completed run; see the -help text for the
// full exit-code contract.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	"simdtree/internal/checkpoint"
	"simdtree/internal/metrics"
	"simdtree/internal/puzzle"
	"simdtree/internal/search"
	"simdtree/internal/server"
	"simdtree/internal/simd"
	"simdtree/internal/spill"
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

// errUsage reports flags package flag refused; it has printed why.
var errUsage = errors.New("invalid flags")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	switch {
	case err == nil:
		return
	case errors.Is(err, errUsage):
		os.Exit(exitUsage)
	}
	fmt.Fprintln(os.Stderr, "simdsearch:", err)
	if errors.Is(err, context.Canceled) {
		os.Exit(exitInterrupted)
	}
	os.Exit(exitError)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simdsearch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		domain   = fs.String("domain", "puzzle", "problem domain: puzzle, synthetic or queens")
		scheme   = fs.String("scheme", "GP-DK", "load-balancing scheme, e.g. GP-S0.90, nGP-DP, GP-DK")
		p        = fs.Int("p", 1024, "number of simulated processors")
		workers  = fs.Int("workers", 0, "goroutines per simulated cycle (0 = sequential)")
		topoName = fs.String("topology", "cm2", "interconnect: cm2, hypercube, mesh or crossbar")
		lbScale  = fs.Float64("lbscale", 1, "multiplier on load-balancing cost (Table 5 style); not with -checkpoint or -resume")
		stop     = fs.Bool("stop", false, "stop at the first goal instead of searching exhaustively")
		showTr   = fs.Bool("trace", false, "print the per-cycle active-processor trace")
		progress = fs.Int("progress", 0, "print a liveness line to stderr every N cycles (0 = off)")

		memBudget = fs.Int64("mem-budget", 0, "memory budget in bytes for simulated stack storage (0 = unbounded); cold stack levels spill to a temp directory and fault back on demand, with identical results")
		ida       = fs.Bool("ida", false, "puzzle: run complete parallel IDA* (all iterations on the machine) instead of only the final bounded iteration")
		lc        = fs.Bool("lc", false, "puzzle: use the Manhattan+linear-conflict heuristic (smaller W, costlier bound)")

		cpuProfile = fs.String("pprof", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file when the run finishes")

		ckptPath   = fs.String("checkpoint", "", "write a resumable checkpoint to this file every -every cycles, plus a final one on interrupt")
		ckptEvery  = fs.Int("every", 1000, "checkpoint cadence in expansion cycles (with -checkpoint)")
		resumePath = fs.String("resume", "", "resume an interrupted run from this checkpoint file (the job spec the flags name must match)")

		scramble = fs.Uint64("scramble", 1, "puzzle: scramble seed")
		steps    = fs.Int("steps", 40, "puzzle: scramble walk length")
		bound    = fs.Int("bound", 0, "puzzle: explicit IDA* cost bound (0 = bound of the first solving iteration)")

		w    = fs.Int64("w", 100000, "synthetic: exact tree size")
		seed = fs.Uint64("seed", 7, "synthetic: tree seed")
		n    = fs.Int("n", 10, "queens: board size")
	)
	fs.Usage = func() {
		out := fs.Output()
		fmt.Fprintf(out, "usage: simdsearch [flags]\n\nflags:\n")
		fs.PrintDefaults()
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
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *memBudget > 0 && *ida {
		return fmt.Errorf("-mem-budget is not supported with -ida (the iteration driver builds its machines internally)")
	}
	if *ckptPath != "" && *ckptEvery <= 0 {
		return fmt.Errorf("-every must be positive, got %d", *ckptEvery)
	}
	if *lbScale != 1 && (*ckptPath != "" || *resumePath != "") {
		return fmt.Errorf("-lbscale %g cannot be combined with -checkpoint or -resume: a checkpoint's job spec does not record it", *lbScale)
	}

	spec := server.JobSpec{Domain: *domain, Scheme: *scheme, P: *p, Topology: *topoName, StopAtFirstGoal: *stop}
	switch *domain {
	case "puzzle":
		spec.Puzzle = &server.PuzzleSpec{Seed: *scramble, Steps: *steps, Bound: *bound, LC: *lc}
	case "synthetic":
		spec.Synthetic = &server.SyntheticSpec{W: *w, Seed: *seed}
	case "queens":
		spec.Queens = &server.QueensSpec{N: *n}
	}
	domains := make(map[string]bool)
	for _, d := range server.BuiltinDomains() {
		domains[d] = true
	}
	spec, err := server.Canonicalize(spec, domains)
	if err != nil {
		return err
	}
	if *ida && spec.Domain != "puzzle" {
		return fmt.Errorf("-ida needs -domain puzzle")
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
				fmt.Fprintln(stderr, "simdsearch: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "simdsearch: memprofile:", err)
			}
		}()
	}

	net, err := topology.ByName(spec.Topology)
	if err != nil {
		return err
	}
	opts := simd.Options{P: spec.P, Workers: *workers, Topology: net, StopAtFirstGoal: spec.StopAtFirstGoal, MemBudget: *memBudget}
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
			fmt.Fprintf(stderr, "  cycle %d: active=%d W=%d phases=%d Tpar=%v E=%.3f\n",
				p.Stats.Cycles, p.Active, p.Stats.W, p.Stats.LBPhases, p.Stats.Tpar, p.Stats.Efficiency())
		}
	}

	// The puzzle's cost domain serves the serial W line and -ida; the
	// bound it finds goes into the spec, so the run does not search again.
	var dom search.CostDomain[puzzle.Node]
	if spec.Domain == "puzzle" {
		inst := puzzle.Scramble(spec.Puzzle.Seed, spec.Puzzle.Steps)
		fmt.Fprintln(stdout, "start position:")
		fmt.Fprintln(stdout, inst)
		dom = puzzle.NewDomain(inst)
		if spec.Puzzle.LC {
			dom = puzzle.NewDomainLC(inst)
		}
		if !*ida {
			b := spec.Puzzle.Bound
			var serialW int64
			if b == 0 {
				b, serialW = search.FinalIterationBound(dom)
			} else {
				serialW = search.DFS[puzzle.Node](search.NewBounded(dom, b)).Expanded
			}
			fmt.Fprintf(stdout, "cost bound %d, serial W = %d\n", b, serialW)
			spec.Puzzle.Bound = b
		}
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var resume []byte
	if *resumePath != "" {
		if resume, err = os.ReadFile(*resumePath); err != nil {
			return err
		}
		meta, err := checkpoint.Peek(resume)
		if err != nil {
			return fmt.Errorf("checkpoint %s: %w", *resumePath, err)
		}
		if !bytes.Equal(meta.Extra, specJSON) {
			return fmt.Errorf("checkpoint %s was taken for %s; flags say %s", *resumePath, meta.Extra, specJSON)
		}
	}

	// written is the cycle of the last checkpoint persisted, -1 for none.
	written := -1
	write := func(b []byte) error { return checkpoint.WriteFile(*ckptPath, b) }
	var stats metrics.Stats
	if *ida {
		var snap *simd.Snapshot[puzzle.Node]
		if resume != nil {
			if _, snap, err = checkpoint.Decode[puzzle.Node](wire.PuzzleCodec{}, resume); err != nil {
				return err
			}
			if snap.IDA == nil {
				return fmt.Errorf("checkpoint %s holds a single bounded run, not an IDA* run; resume it without -ida", *resumePath)
			}
			fmt.Fprintf(stdout, "resumed from %s at iteration %d (bound %d), cycle %d\n", *resumePath, snap.IDA.Iteration, snap.IDA.Bound, snap.Cycle)
		}
		var sink func(*simd.Snapshot[puzzle.Node]) error
		if *ckptPath != "" {
			opts.CheckpointEvery = *ckptEvery
			meta := checkpoint.Meta{Domain: spec.Domain, Scheme: spec.Scheme, Topology: spec.Topology, Extra: specJSON}
			sink = func(s *simd.Snapshot[puzzle.Node]) error {
				b, err := checkpoint.Encode[puzzle.Node](wire.PuzzleCodec{}, meta, s)
				if err == nil {
					err = write(b)
				}
				if err == nil {
					written = s.Cycle
				}
				return err
			}
		}
		// The paper's complete algorithm: every IDA* iteration on the
		// machine, with the per-iteration progression.
		sch, serr := simd.ParseScheme[puzzle.Node](spec.Scheme)
		if serr != nil {
			return serr
		}
		var res simd.IDAStarResult
		res, err = simd.RunIDAStarCheckpointed[puzzle.Node](ctx, dom, sch, opts, 0, snap, sink)
		if err != nil && !res.Stats.Cancelled {
			return err
		}
		fmt.Fprintf(stdout, "parallel IDA*: %d iterations, final bound %d\n", len(res.Iterations), res.Bound)
		for _, it := range res.Iterations {
			fmt.Fprintf(stdout, "  bound %2d: W=%-9d cycles=%-6d phases=%-5d E=%.3f\n",
				it.Bound, it.Stats.W, it.Stats.Cycles, it.Stats.LBPhases, it.Stats.Efficiency())
		}
		stats = res.Stats
	} else {
		env := server.RunEnv{Resume: resume, SpecJSON: specJSON}
		if *ckptPath != "" {
			env.CheckpointEvery = *ckptEvery
			env.Write = write
			env.Checkpointed = func(cycle int) { written = cycle }
		}
		if resume != nil {
			env.OnResume = func(cycle int) { fmt.Fprintf(stdout, "resumed from %s at cycle %d\n", *resumePath, cycle) }
		}
		if *memBudget > 0 {
			env.SpillStats = func(st spill.Stats) {
				fmt.Fprintf(stderr, "simdsearch: spill: %d evictions, %d faults, %d bytes written, %d read, peak resident %d nodes\n",
					st.Evictions, st.Faults, st.BytesWritten, st.BytesRead, st.PeakResident)
			}
		}
		stats, err = server.RunSpec(ctx, spec, opts, env)
	}
	if err != nil && !stats.Cancelled {
		return err
	}
	if *ckptPath != "" {
		switch {
		case err == nil:
			// The run completed; a periodic checkpoint left behind would
			// only invite resuming a finished run.
			if rerr := os.Remove(*ckptPath); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
				fmt.Fprintf(stderr, "simdsearch: removing stale checkpoint: %v\n", rerr)
			}
		case written >= 0:
			fmt.Fprintf(stderr, "simdsearch: wrote checkpoint %s at cycle %d\n", *ckptPath, written)
		}
	}

	fmt.Fprintln(stdout, stats)
	fmt.Fprintf(stdout, "  Tpar=%v Tcalc=%v Tidle=%v Tlb=%v\n", stats.Tpar, stats.Tcalc, stats.Tidle, stats.Tlb)
	fmt.Fprintf(stdout, "  init: %d cycles, %d phases; peak stack %d nodes; largest transfer %d nodes\n",
		stats.InitCycles, stats.InitPhases, stats.PeakStack, stats.MaxTransfer)
	if tr != nil {
		min, at := tr.MinActive()
		fmt.Fprintf(stdout, "  trace: %d samples, min active %d at cycle %d\n", len(tr.Samples), min, at)
		stride := len(tr.Samples)/40 + 1
		for i, s := range tr.Samples {
			if i%stride == 0 {
				fmt.Fprintf(stdout, "  cycle %5d  active %6d\n", s.Cycle, s.Active)
			}
		}
	}
	if err != nil {
		// Interrupted: the numbers above are the completed prefix only.
		return fmt.Errorf("run interrupted after %d cycles: %w", stats.Cycles, err)
	}
	return nil
}
