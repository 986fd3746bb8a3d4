package simd

import (
	"context"
	"errors"
	"testing"

	"simdtree/internal/puzzle"
	"simdtree/internal/synthetic"
	"simdtree/internal/trace"
)

// TestRunContextBackgroundMatchesRun pins the wrapper contract: RunContext
// with a background context is bit-for-bit Run.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	sch, err := ParseScheme[synthetic.Node]("GP-DK")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{P: 32}
	want, err := Run[synthetic.Node](synthetic.New(4000, 3), sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext[synthetic.Node](context.Background(), synthetic.New(4000, 3), sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("RunContext stats differ from Run:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunContextPreCancelled: a context cancelled before the run starts
// stops it at the first cycle boundary, before any node is expanded.
func TestRunContextPreCancelled(t *testing.T) {
	sch, err := ParseScheme[synthetic.Node]("GP-S0.80")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := RunContext[synthetic.Node](ctx, synthetic.New(4000, 3), sch, Options{P: 32})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !st.Cancelled {
		t.Error("Stats.Cancelled not set")
	}
	if st.W != 0 || st.Cycles != 0 {
		t.Errorf("pre-cancelled run expanded work: W=%d Cycles=%d", st.W, st.Cycles)
	}
}

// TestRunContextPrefixDeterminism is the determinism contract for
// cancellation: cancelling after cycle k (via the Progress hook, which the
// engine calls synchronously at cycle boundaries) must leave a run whose
// per-cycle trace and aggregates are exactly the k-cycle prefix of the
// uncancelled run.
func TestRunContextPrefixDeterminism(t *testing.T) {
	const cancelAt = 7
	newRun := func() (*trace.Trace, Options) {
		tr := &trace.Trace{}
		return tr, Options{P: 32, Trace: tr}
	}

	sch, err := ParseScheme[synthetic.Node]("GP-S0.80")
	if err != nil {
		t.Fatal(err)
	}
	fullTr, fullOpts := newRun()
	full, err := Run[synthetic.Node](synthetic.New(4000, 3), sch, fullOpts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Cycles <= cancelAt {
		t.Fatalf("reference run too short (%d cycles) for cancelAt=%d", full.Cycles, cancelAt)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partTr, partOpts := newRun()
	partOpts.ProgressEvery = cancelAt
	partOpts.Progress = func(p ProgressInfo) {
		if p.Stats.Cycles >= cancelAt {
			cancel()
		}
	}
	part, err := RunContext[synthetic.Node](ctx, synthetic.New(4000, 3), sch, partOpts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !part.Cancelled {
		t.Error("Stats.Cancelled not set")
	}
	if part.Cycles != cancelAt {
		t.Fatalf("cancelled run completed %d cycles, want exactly %d", part.Cycles, cancelAt)
	}
	if len(partTr.Samples) != cancelAt {
		t.Fatalf("cancelled run recorded %d samples, want %d", len(partTr.Samples), cancelAt)
	}
	var wantW int64
	for i, s := range partTr.Samples {
		ref := fullTr.Samples[i]
		if s != ref {
			t.Errorf("cycle %d: cancelled-run sample %+v differs from full-run %+v", i, s, ref)
		}
		wantW += int64(s.Active)
	}
	if part.W != wantW {
		t.Errorf("partial W=%d, want %d (sum of per-cycle actives)", part.W, wantW)
	}
}

// TestRunContextDeadline: a deadline surfaces as context.DeadlineExceeded
// with partial stats, exercising the path a service timeout takes.
func TestRunContextDeadline(t *testing.T) {
	sch, err := ParseScheme[synthetic.Node]("GP-DK")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	st, err := RunContext[synthetic.Node](ctx, synthetic.New(100000, 3), sch, Options{P: 16})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !st.Cancelled {
		t.Error("Stats.Cancelled not set on deadline")
	}
}

// TestRunIDAStarContextCancel: cancellation mid-iteration returns the
// partial iteration and propagates both the flag and the cause.
func TestRunIDAStarContextCancel(t *testing.T) {
	sch, err := ParseScheme[puzzle.Node]("GP-S0.80")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunIDAStarContext[puzzle.Node](ctx, puzzle.NewDomain(puzzle.Scramble(5, 16)), sch, Options{P: 16}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Stats.Cancelled {
		t.Error("aggregate Stats.Cancelled not set")
	}
	if len(res.Iterations) != 1 {
		t.Errorf("%d iterations recorded, want the 1 interrupted one", len(res.Iterations))
	}
}

// TestBudgetErrIs pins the sentinel so services can classify budget
// exhaustion without string matching.
func TestBudgetErrIs(t *testing.T) {
	sch, err := ParseScheme[synthetic.Node]("GP-DK")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run[synthetic.Node](synthetic.New(100000, 3), sch, Options{P: 4, MaxCycles: 5})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if st.Cycles != 5 {
		t.Errorf("budgeted run completed %d cycles, want 5", st.Cycles)
	}
	if st.Cancelled {
		t.Error("budget exhaustion must not set Cancelled")
	}
}
