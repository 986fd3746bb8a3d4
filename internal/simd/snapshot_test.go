package simd

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"simdtree/internal/puzzle"
	"simdtree/internal/search"
	"simdtree/internal/synthetic"
	"simdtree/internal/trace"
)

// cancelAtCycle runs the scheme until cycle k, cancels at that boundary,
// and returns the machine (quiescent, resumable) plus its partial stats.
func cancelAtCycle[S any](t *testing.T, d search.Domain[S], label string, opts Options, k int) *Machine[S] {
	t.Helper()
	sch, err := ParseScheme[S](label)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.ProgressEvery = 1
	opts.Progress = func(p ProgressInfo) {
		if p.Stats.Cycles >= k {
			cancel()
		}
	}
	m, err := NewMachine[S](d, sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel at cycle %d: err = %v, want context.Canceled", k, err)
	}
	if st.Cycles != k {
		t.Fatalf("cancelled run completed %d cycles, want %d", st.Cycles, k)
	}
	return m
}

// TestSnapshotResumeEquivalence is the in-memory core of the checkpoint
// invariant: run to cycle k, Snapshot, restore into a fresh machine, run
// to the end — Stats and trace equal the uninterrupted run's exactly.
// (The serialized version lives in internal/checkpoint.)
func TestSnapshotResumeEquivalence(t *testing.T) {
	const label = "GP-DK"
	newDomain := func() search.Domain[synthetic.Node] { return synthetic.New(4000, 3) }
	newOpts := func() (Options, *trace.Trace) {
		tr := &trace.Trace{}
		return Options{P: 32, Trace: tr}, tr
	}

	refOpts, refTr := newOpts()
	sch, err := ParseScheme[synthetic.Node](label)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run[synthetic.Node](newDomain(), sch, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Cycles < 3 {
		t.Fatalf("reference run too short: %d cycles", ref.Cycles)
	}

	for _, k := range []int{1, ref.Cycles / 2, ref.Cycles - 1} {
		partOpts, _ := newOpts()
		m := cancelAtCycle[synthetic.Node](t, newDomain(), label, partOpts, k)
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatalf("k=%d: Snapshot: %v", k, err)
		}
		if snap.Cycle != k {
			t.Fatalf("k=%d: snapshot cycle %d", k, snap.Cycle)
		}
		resOpts, resTr := newOpts()
		sch2, err := ParseScheme[synthetic.Node](label)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ResumeContext[synthetic.Node](context.Background(), newDomain(), sch2, resOpts, snap)
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		if got != ref {
			t.Errorf("k=%d: resumed stats differ:\n got %+v\nwant %+v", k, got, ref)
		}
		if !reflect.DeepEqual(resTr.Samples, refTr.Samples) {
			t.Errorf("k=%d: resumed trace samples differ", k)
		}
		if !reflect.DeepEqual(resTr.Events, refTr.Events) {
			t.Errorf("k=%d: resumed trace events differ", k)
		}
	}
}

// TestMachineContinueAfterCancel: the same machine object can simply keep
// running after a cancellation — resume without any snapshot at all.
func TestMachineContinueAfterCancel(t *testing.T) {
	sch, err := ParseScheme[synthetic.Node]("nGP-S0.80")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run[synthetic.Node](synthetic.New(4000, 3), sch, Options{P: 32})
	if err != nil {
		t.Fatal(err)
	}
	m := cancelAtCycle[synthetic.Node](t, synthetic.New(4000, 3), "nGP-S0.80", Options{P: 32}, ref.Cycles/2)
	got, err := m.RunContext(context.Background())
	if err != nil {
		t.Fatalf("continue: %v", err)
	}
	if got != ref {
		t.Errorf("continued stats differ:\n got %+v\nwant %+v", got, ref)
	}
}

// TestOnCheckpointCadenceAndAbort: the sink fires at the configured
// cadence with prefix-consistent snapshots, and a sink error aborts the
// run with that error, unmarked as cancellation.
func TestOnCheckpointCadenceAndAbort(t *testing.T) {
	sch, err := ParseScheme[synthetic.Node]("GP-DK")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{P: 32, CheckpointEvery: 5}
	m, err := NewMachine[synthetic.Node](synthetic.New(4000, 3), sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	var cycles []int
	m.OnCheckpoint(func(s *Snapshot[synthetic.Node]) error {
		cycles = append(cycles, s.Cycle)
		return nil
	})
	if _, err := m.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(cycles) == 0 {
		t.Fatal("checkpoint sink never fired")
	}
	for i, c := range cycles {
		if c%5 != 0 || c == 0 {
			t.Errorf("snapshot %d at cycle %d, want positive multiples of 5", i, c)
		}
	}

	sinkErr := errors.New("disk full")
	m2, err := NewMachine[synthetic.Node](synthetic.New(4000, 3), sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	m2.OnCheckpoint(func(*Snapshot[synthetic.Node]) error { return sinkErr })
	st, err := m2.RunContext(context.Background())
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want the sink error", err)
	}
	if st.Cancelled {
		t.Error("sink error must not mark the run cancelled")
	}
}

// TestIDAStarCheckpointResume: cancel a parallel IDA* run mid-iteration,
// capture the final checkpoint the driver writes, resume, and require the
// aggregate result to match an uninterrupted run.
func TestIDAStarCheckpointResume(t *testing.T) {
	const label = "GP-S0.80"
	newDomain := func() search.CostDomain[puzzle.Node] { return puzzle.NewDomain(puzzle.Scramble(23, 30)) }
	sch, err := ParseScheme[puzzle.Node](label)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{P: 16}
	ref, err := RunIDAStar[puzzle.Node](newDomain(), sch, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Iterations) < 2 {
		t.Fatalf("want a multi-iteration reference, got %d iterations", len(ref.Iterations))
	}

	// Cancel somewhere inside the final iteration; every periodic snapshot
	// goes through the sink, and the driver adds a final one on cancel.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *Snapshot[puzzle.Node]
	ckptOpts := opts
	ckptOpts.CheckpointEvery = 3
	sch2, err := ParseScheme[puzzle.Node](label)
	if err != nil {
		t.Fatal(err)
	}
	sink := func(s *Snapshot[puzzle.Node]) error {
		last = s
		if s.IDA.Iteration == len(ref.Iterations)-1 && s.Cycle >= 2 {
			cancel()
		}
		return nil
	}
	_, runErr := RunIDAStarCheckpointed[puzzle.Node](ctx, newDomain(), sch2, ckptOpts, 0, nil, sink)
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
	if last == nil || last.IDA == nil {
		t.Fatal("no checkpoint captured")
	}

	sch3, err := ParseScheme[puzzle.Node](label)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunIDAStarCheckpointed[puzzle.Node](context.Background(), newDomain(), sch3, opts, 0, last, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got.Stats != ref.Stats {
		t.Errorf("resumed aggregate stats differ:\n got %+v\nwant %+v", got.Stats, ref.Stats)
	}
	if got.Bound != ref.Bound || len(got.Iterations) != len(ref.Iterations) {
		t.Errorf("resumed shape differs: bound %d/%d, iterations %d/%d",
			got.Bound, ref.Bound, len(got.Iterations), len(ref.Iterations))
	}
	for i := range got.Iterations {
		if got.Iterations[i] != ref.Iterations[i] {
			t.Errorf("iteration %d differs:\n got %+v\nwant %+v", i, got.Iterations[i], ref.Iterations[i])
		}
	}
}
