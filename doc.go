// Package simdtree reproduces "Unstructured Tree Search on SIMD Parallel
// Computers" (Karypis & Kumar, SC 1992): load balancing of unstructured
// tree searches on lock-step SIMD machines.
//
// The library is organised as the paper is:
//
//   - internal/simd — the lock-step machine simulator (the CM-2 substitute):
//     search phases of node-expansion cycles alternating with
//     load-balancing phases under a virtual cost model.
//   - internal/match — the nGP and GP (global pointer) matching schemes.
//   - internal/trigger — the S^x static, D^P and D^K dynamic triggers.
//   - internal/stack — DFS stacks and alpha-splitting mechanisms.
//   - internal/search, internal/puzzle, internal/synthetic,
//     internal/queens — the problem abstraction and workloads.
//   - internal/baselines, internal/mimd — the Section 8 competitors and the
//     MIMD work-stealing comparison.
//   - internal/analysis — isoefficiency functions, V(P) bounds and the
//     optimal static trigger (equation 18).
//   - internal/experiments — runners regenerating every table and figure.
//
// This file provides a small convenience facade over those packages; the
// examples/ directory shows the underlying APIs directly.
package simdtree

import (
	"context"

	"simdtree/internal/metrics"
	"simdtree/internal/puzzle"
	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/spill"
	"simdtree/internal/synthetic"
	"simdtree/internal/wire"
)

// Stats re-exports the Section 3.1 run statistics.
type Stats = metrics.Stats

// Options re-exports the machine configuration.
type Options = simd.Options

// Schemes returns the labels of the paper's six load-balancing schemes
// (Table 1) with a representative static threshold.
func Schemes() []string { return simd.Table1Labels(0.85) }

// RunContext simulates scheme `label` searching domain d on a SIMD
// machine.  The context is checked only at cycle boundaries, so
// cancellation never changes the schedule of the cycles that completed: a
// cancelled run returns the partial Stats of that prefix with
// Stats.Cancelled set, plus the context's cause as the error.
//
// A positive Options.MemBudget needs a node codec to spill with; use the
// codec-aware Search* helpers (which wire one automatically) or build the
// machine and a spill.Manager directly.
func RunContext[S any](ctx context.Context, d search.Domain[S], label string, opts Options) (Stats, error) {
	sch, err := simd.ParseScheme[S](label)
	if err != nil {
		return Stats{}, err
	}
	return simd.RunContext[S](ctx, d, sch, opts)
}

// runSpillable is RunContext for the codec-aware helpers: a positive
// Options.MemBudget gets a temp-directory residency manager, and by the
// determinism contract the stats are identical to an unbounded run's.
func runSpillable[S any](ctx context.Context, d search.Domain[S], codec wire.Codec[S], label string, opts Options) (Stats, error) {
	sch, err := simd.ParseScheme[S](label)
	if err != nil {
		return Stats{}, err
	}
	m, err := simd.NewMachine[S](d, sch, opts)
	if err != nil {
		return Stats{}, err
	}
	if opts.MemBudget > 0 {
		_, done, err := spill.Attach(m, codec, d.Root(), opts.MemBudget, "")
		if err != nil {
			return Stats{}, err
		}
		defer done()
	}
	return m.RunContext(ctx)
}

// Run simulates scheme `label` searching domain d on a SIMD machine.
//
// Deprecated: use RunContext, which supports cancellation and deadlines;
// Run is equivalent to RunContext with context.Background().
func Run[S any](d search.Domain[S], label string, opts Options) (Stats, error) {
	//lint:allow ctxflow deprecated context-free wrapper kept for API compatibility
	return RunContext[S](context.Background(), d, label, opts)
}

// ResumeContext continues a run from a checkpoint snapshot (see
// internal/checkpoint for the on-disk format): the domain, scheme label
// and options must match the interrupted run's.  The resumed run
// completes the schedule exactly as the uninterrupted run would have,
// returning identical Stats.
func ResumeContext[S any](ctx context.Context, d search.Domain[S], label string, opts Options, snap *simd.Snapshot[S]) (Stats, error) {
	sch, err := simd.ParseScheme[S](label)
	if err != nil {
		return Stats{}, err
	}
	return simd.ResumeContext[S](ctx, d, sch, opts, snap)
}

// SearchPuzzleResumeContext is SearchPuzzleContext resuming from a
// checkpoint taken by an interrupted run with the same seed, steps,
// label and options.
func SearchPuzzleResumeContext(ctx context.Context, seed uint64, steps int, label string, opts Options, snap *simd.Snapshot[puzzle.Node]) (Stats, int64, error) {
	dom := puzzle.NewDomain(puzzle.Scramble(seed, steps))
	bound, w := search.FinalIterationBound(dom)
	stats, err := ResumeContext[puzzle.Node](ctx, search.NewBounded(dom, bound), label, opts, snap)
	return stats, w, err
}

// SearchPuzzleContext scrambles a 15-puzzle with the given seed and walk
// length, finds the IDA* bound of the first solving iteration, and
// searches that final iteration exhaustively on a simulated SIMD machine —
// the paper's experimental setup in one call.  It returns the run
// statistics and the serial problem size W.  Cancellation follows the
// RunContext contract.
func SearchPuzzleContext(ctx context.Context, seed uint64, steps int, label string, opts Options) (Stats, int64, error) {
	dom := puzzle.NewDomain(puzzle.Scramble(seed, steps))
	bound, w := search.FinalIterationBound(dom)
	stats, err := runSpillable[puzzle.Node](ctx, search.NewBounded(dom, bound), wire.PuzzleCodec{}, label, opts)
	return stats, w, err
}

// SearchPuzzle is SearchPuzzleContext with a background context.
//
// Deprecated: use SearchPuzzleContext.
func SearchPuzzle(seed uint64, steps int, label string, opts Options) (Stats, int64, error) {
	//lint:allow ctxflow deprecated context-free wrapper kept for API compatibility
	return SearchPuzzleContext(context.Background(), seed, steps, label, opts)
}

// SearchSyntheticContext searches a deterministic synthetic tree of
// exactly w nodes under scheme `label`.  Cancellation follows the
// RunContext contract.
func SearchSyntheticContext(ctx context.Context, w int64, seed uint64, label string, opts Options) (Stats, error) {
	return runSpillable[synthetic.Node](ctx, synthetic.New(w, seed), wire.SyntheticCodec{}, label, opts)
}

// SearchSynthetic is SearchSyntheticContext with a background context.
//
// Deprecated: use SearchSyntheticContext.
func SearchSynthetic(w int64, seed uint64, label string, opts Options) (Stats, error) {
	//lint:allow ctxflow deprecated context-free wrapper kept for API compatibility
	return SearchSyntheticContext(context.Background(), w, seed, label, opts)
}
