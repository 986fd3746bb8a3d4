package simd

import (
	"context"
	"errors"

	"simdtree/internal/metrics"
	"simdtree/internal/search"
)

// IterationStat records one cost-bounded IDA* iteration on the machine.
type IterationStat struct {
	Bound int
	Stats metrics.Stats
}

// IDAStarResult aggregates a full parallel IDA* run.
type IDAStarResult struct {
	// Stats sums the per-iteration statistics; Efficiency() is the
	// whole-run efficiency.
	Stats metrics.Stats
	// Iterations holds the per-iteration details, in bound order.
	Iterations []IterationStat
	// Bound is the cost bound of the final (solving) iteration.
	Bound int
}

// RunIDAStar executes parallel IDA* exactly as the paper's experiments do
// (Section 5): successive cost-bounded depth-first searches on the SIMD
// machine, each iteration run to exhaustion so that all solutions within
// the bound are found and serial/parallel node counts coincide; the bound
// then rises to the smallest pruned f-value.  The run stops after the
// first iteration that finds a goal (or when the space is exhausted).
// maxIters <= 0 means no iteration limit.
//
// The context is polled at the cycle boundaries of each iteration (see
// RunContext); a cancelled run returns the iterations completed so far
// plus the partial statistics of the interrupted iteration, with
// Stats.Cancelled set, and the context's cause as the error.
//
// Checkpoint/restore follows Horie & Fukunaga's restartable
// block-parallel IDA*: when sink is non-nil it receives periodic snapshots
// (Options.CheckpointEvery cadence) whose IDA field records the in-flight
// iteration's bound and the iterations already completed, including the
// schedule's stop-time snapshot of a cancelled run, so an interrupt loses
// no work.  Passing such a snapshot as resume continues the run: the
// completed iterations are replayed from the snapshot, the interrupted
// iteration resumes at its cycle boundary, and the overall result is
// byte-identical to an uninterrupted run.
func RunIDAStar[S any](ctx context.Context, d search.CostDomain[S], sch Scheme[S], opts Options, maxIters int, resume *Snapshot[S], sink func(*Snapshot[S]) error) (IDAStarResult, error) {
	if d == nil {
		return IDAStarResult{}, errors.New("simd: nil domain")
	}
	var res IDAStarResult
	bound := d.F(d.Root())
	iter := 0
	if resume != nil {
		if resume.IDA == nil {
			return IDAStarResult{}, errors.New("simd: snapshot lacks IDA* state; it is of a single bounded run")
		}
		iter = resume.IDA.Iteration
		bound = resume.IDA.Bound
		for _, it := range resume.IDA.Done {
			res.Iterations = append(res.Iterations, it)
			accumulate(&res.Stats, it.Stats)
		}
	}
	for ; maxIters <= 0 || iter < maxIters; iter++ {
		b := search.NewBounded(d, bound)
		m, err := NewMachine[S](b, sch, opts)
		if err != nil {
			return res, err
		}
		if resume != nil {
			if err := m.RestoreSnapshot(resume); err != nil {
				return res, err
			}
			resume = nil
		}
		done := append([]IterationStat(nil), res.Iterations...)
		if sink != nil {
			m.OnCheckpoint(func(s *Snapshot[S]) error {
				s.IDA = &IDAState{Iteration: iter, Bound: bound, Done: done}
				return sink(s)
			})
		}
		st, runErr := m.RunContext(ctx)
		res.Iterations = append(res.Iterations, IterationStat{Bound: bound, Stats: st})
		res.Bound = bound
		accumulate(&res.Stats, st)
		if runErr != nil {
			return res, runErr
		}
		if st.Goals > 0 {
			return res, nil
		}
		next, ok := b.NextBound()
		if !ok {
			return res, nil // space exhausted without a solution
		}
		bound = next
	}
	return res, nil
}

// accumulate folds one iteration into the aggregate statistics.
func accumulate(agg *metrics.Stats, st metrics.Stats) {
	agg.P = st.P
	agg.W += st.W
	agg.Goals += st.Goals
	agg.Cycles += st.Cycles
	agg.LBPhases += st.LBPhases
	agg.Transfers += st.Transfers
	agg.InitCycles += st.InitCycles
	agg.InitPhases += st.InitPhases
	agg.Tcalc += st.Tcalc
	agg.Tidle += st.Tidle
	agg.Tlb += st.Tlb
	agg.Tpar += st.Tpar
	if st.PeakStack > agg.PeakStack {
		agg.PeakStack = st.PeakStack
	}
	if st.MaxTransfer > agg.MaxTransfer {
		agg.MaxTransfer = st.MaxTransfer
	}
	if st.Cancelled {
		agg.Cancelled = true
	}
}
