package server

import (
	"context"
	"errors"
	"fmt"

	"simdtree/internal/checkpoint"
	"simdtree/internal/metrics"
	"simdtree/internal/puzzle"
	"simdtree/internal/queens"
	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/spill"
	"simdtree/internal/steal"
	"simdtree/internal/synthetic"
	"simdtree/internal/topology"
	"simdtree/internal/wire"
)

// RunEnv carries the checkpoint-spool plumbing into a runner.  The zero
// value disables checkpointing, so runners that ignore it (test
// injections) keep working unchanged apart from the extra parameter.
type RunEnv struct {
	// CheckpointEvery asks the runner to snapshot every N completed
	// cycles; 0 disables periodic checkpoints.
	CheckpointEvery int
	// Resume holds an encoded checkpoint to restore before running; nil
	// starts fresh.
	Resume []byte
	// SpecJSON is the canonical spec encoding stored in each
	// checkpoint's Meta.Extra, so a restarted server can rebuild the job
	// from the spool file alone.
	SpecJSON []byte
	// Write persists one encoded checkpoint, atomically replacing the
	// job's previous one.
	Write func([]byte) error
	// OnResume reports the cycle the run restored at, before any new
	// cycle executes.
	OnResume func(cycle int)
	// Checkpointed reports the cycle of each successfully persisted
	// periodic checkpoint, after Write returned nil.
	Checkpointed func(cycle int)
	// SpillDir names the directory for the job's spill segments when the
	// run is memory-bounded; "" makes the runner use a private temp
	// directory.  Either way the directory is cleared when the run ends —
	// segments are a cache, the checkpoint spool is the source of truth.
	SpillDir string
	// SpillStats, when non-nil, receives the residency manager's final
	// counters after a memory-bounded run ends.
	SpillStats func(spill.Stats)
}

// Runner executes one canonical job spec on the simulated machine.  Extra
// runners can be registered through Config.Runners — the race smoke test
// injects a panicking domain that way to prove worker isolation.
type Runner func(ctx context.Context, spec JobSpec, opts simd.Options, env RunEnv) (metrics.Stats, error)

// builtinDomain is one built-in domain as the node uses it: the job runner
// and the shard host of a distributed run.  Both come from one domain
// constructor (builtin), because the byte-identity contract needs a shard
// to expand the same tree the original run would have.
type builtinDomain struct {
	run  Runner
	host func(spec JobSpec, opts simd.Options, lo, hi int, raw *checkpoint.RawSnapshot) (steal.Host, error)
}

// builtin derives both faces of a domain from its constructor and codec.
func builtin[S any](codec wire.Codec[S], build func(JobSpec) (search.Domain[S], error)) builtinDomain {
	return builtinDomain{
		run: func(ctx context.Context, spec JobSpec, opts simd.Options, env RunEnv) (metrics.Stats, error) {
			d, err := build(spec)
			if err != nil {
				return metrics.Stats{}, err
			}
			return runMachine[S](ctx, d, codec, spec, opts, env)
		},
		host: func(spec JobSpec, opts simd.Options, lo, hi int, raw *checkpoint.RawSnapshot) (steal.Host, error) {
			d, err := build(spec)
			if err != nil {
				return nil, err
			}
			return steal.NewHost[S](d, codec, spec.Scheme, opts, lo, hi, raw.Stacks[lo:hi], raw.DomainState)
		},
	}
}

// builtins is the domain table.  A domain is stealable exactly when it is
// in here: injected test runners have no shard host.
var builtins = map[string]builtinDomain{
	"puzzle": builtin[puzzle.Node](wire.PuzzleCodec{}, puzzleDomain),
	"synthetic": builtin[synthetic.Node](wire.SyntheticCodec{}, func(spec JobSpec) (search.Domain[synthetic.Node], error) {
		return synthetic.New(spec.Synthetic.W, spec.Synthetic.Seed), nil
	}),
	"queens": builtin[queens.Node](wire.QueensCodec{}, func(spec JobSpec) (search.Domain[queens.Node], error) {
		return queens.New(spec.Queens.N), nil
	}),
}

// defaultRunners maps the built-in domains.
func defaultRunners() map[string]Runner {
	runners := make(map[string]Runner, len(builtins))
	for name, b := range builtins {
		runners[name] = b.run
	}
	return runners
}

// RunSpec runs a canonical spec of a built-in domain exactly as a node's
// worker does: opts carries what the spec does not (workers, trace,
// memory budget, progress, costs), env the checkpoint plumbing.
func RunSpec(ctx context.Context, spec JobSpec, opts simd.Options, env RunEnv) (metrics.Stats, error) {
	b, ok := builtins[spec.Domain]
	if !ok {
		return metrics.Stats{}, fmt.Errorf("no built-in domain %q", spec.Domain)
	}
	return b.run(ctx, spec, opts, env)
}

// runMachine is the shared checkpointable execution path: build the
// machine, restore the spooled snapshot if the job is a resumption,
// register the checkpoint sink and run.  The schedule writes the periodic
// checkpoints and, when the run is cancelled, one of the exact cycle
// prefix, so a restarted server loses no completed work.  Because
// cancellation lands only at cycle boundaries, the resumed run replays the
// identical schedule and finishes with the same Stats as an uninterrupted
// one.
func runMachine[S any](ctx context.Context, d search.Domain[S], codec wire.Codec[S], spec JobSpec, opts simd.Options, env RunEnv) (metrics.Stats, error) {
	sch, err := simd.ParseScheme[S](spec.Scheme)
	if err != nil {
		return metrics.Stats{}, err
	}
	checkpointing := env.Write != nil && env.CheckpointEvery > 0
	if checkpointing {
		opts.CheckpointEvery = env.CheckpointEvery
	}
	m, err := simd.NewMachine[S](d, sch, opts)
	if err != nil {
		return metrics.Stats{}, err
	}
	if opts.MemBudget > 0 {
		mgr, done, err := spill.Attach(m, codec, d.Root(), opts.MemBudget, env.SpillDir)
		if err != nil {
			return metrics.Stats{}, err
		}
		defer done()
		if env.SpillStats != nil {
			defer func() { env.SpillStats(mgr.Stats()) }()
		}
	}
	if env.Resume != nil {
		_, snap, err := checkpoint.Decode[S](codec, env.Resume)
		if err != nil {
			return metrics.Stats{}, fmt.Errorf("spooled checkpoint: %w", err)
		}
		if snap.IDA != nil {
			return metrics.Stats{}, errors.New("spooled checkpoint: snapshot is from an IDA* run, which a node does not resume")
		}
		if err := m.RestoreSnapshot(snap); err != nil {
			return metrics.Stats{}, fmt.Errorf("spooled checkpoint: %w", err)
		}
		if env.OnResume != nil {
			env.OnResume(snap.Cycle)
		}
	}
	if checkpointing {
		meta := checkpoint.Meta{Domain: spec.Domain, Scheme: spec.Scheme, Topology: spec.Topology, Extra: env.SpecJSON}
		m.OnCheckpoint(func(snap *simd.Snapshot[S]) error {
			b, err := checkpoint.Encode[S](codec, meta, snap)
			if err != nil {
				return err
			}
			if err := env.Write(b); err != nil {
				return err
			}
			if env.Checkpointed != nil {
				env.Checkpointed(snap.Cycle)
			}
			return nil
		})
	}
	return m.RunContext(ctx)
}

// puzzleDomain builds the cost-bounded 15-puzzle domain of a spec.
func puzzleDomain(spec JobSpec) (search.Domain[puzzle.Node], error) {
	p := spec.Puzzle
	var start puzzle.Node
	if len(p.Tiles) == 16 {
		var tiles [puzzle.Cells]uint8
		copy(tiles[:], p.Tiles)
		n, err := puzzle.FromTiles(tiles)
		if err != nil {
			return nil, err
		}
		start = n
	} else {
		start = puzzle.Scramble(p.Seed, p.Steps)
	}
	var dom search.CostDomain[puzzle.Node] = puzzle.NewDomain(start)
	if p.LC {
		dom = puzzle.NewDomainLC(start)
	}
	bound := p.Bound
	if bound == 0 {
		// The paper's setup: run the final (first solving) IDA*
		// iteration exhaustively.  The bound search itself is serial and
		// not cancellable; explicit bounds sidestep it for huge
		// instances.
		bound, _ = search.FinalIterationBound(dom)
	}
	return search.NewBounded(dom, bound), nil
}

// buildOptions translates a canonical spec into engine options.  Workers
// and topology resolution are service-side concerns; by the determinism
// contract the Workers count never affects results.
func (s *Server) buildOptions(spec JobSpec) (simd.Options, error) {
	opts := simd.Options{
		P:               spec.P,
		Workers:         s.cfg.SimWorkers,
		MaxCycles:       spec.BudgetCycles,
		StopAtFirstGoal: spec.StopAtFirstGoal,
		MemBudget:       spec.MemBudget,
	}
	if opts.MemBudget == 0 {
		// The operator default is safe to apply below the cache key:
		// results are identical with any budget.
		opts.MemBudget = s.cfg.MemBudget
	}
	opts.Costs = simd.CM2Costs()
	net, err := topology.ByName(spec.Topology)
	if err != nil {
		return simd.Options{}, fmt.Errorf("job topology: %w", err)
	}
	opts.Topology = net
	return opts, nil
}
