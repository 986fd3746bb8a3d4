package checkpoint

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"simdtree/internal/puzzle"
	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/synthetic"
	"simdtree/internal/trace"
	"simdtree/internal/wire"
)

// TestResumeEquivalence is the subsystem's load-bearing property: for
// every Table 1 scheme on both workloads, interrupting a run at cycle k,
// serialising the snapshot through the full Encode→Decode round trip and
// resuming in a fresh machine yields Stats and trace byte-identical to
// the uninterrupted run, for k at the start, middle and end of the
// schedule.
func TestResumeEquivalence(t *testing.T) {
	for _, label := range simd.Table1Labels(0.85) {
		label := label
		t.Run("synthetic/"+label, func(t *testing.T) {
			testResume[synthetic.Node](t, wire.SyntheticCodec{}, label, 32,
				func() search.Domain[synthetic.Node] { return synthetic.New(4000, 3) })
		})
		t.Run("puzzle/"+label, func(t *testing.T) {
			inst := puzzle.Scramble(5, 12)
			bound, _ := search.FinalIterationBound(puzzle.NewDomain(inst))
			testResume[puzzle.Node](t, wire.PuzzleCodec{}, label, 64,
				func() search.Domain[puzzle.Node] {
					return search.NewBounded(puzzle.NewDomain(inst), bound)
				})
		})
	}
}

func testResume[S any](t *testing.T, codec wire.Codec[S], label string, p int, newDomain func() search.Domain[S]) {
	t.Helper()
	parse := func() simd.Scheme[S] {
		sch, err := simd.ParseScheme[S](label)
		if err != nil {
			t.Fatal(err)
		}
		return sch
	}
	refTr := &trace.Trace{}
	ref, err := simd.Run[S](newDomain(), parse(), simd.Options{P: p, Trace: refTr})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Cycles < 3 {
		t.Fatalf("reference run too short to interrupt: %d cycles", ref.Cycles)
	}

	ks := map[int]bool{1: true, ref.Cycles / 2: true, ref.Cycles - 1: true}
	for k := range ks {
		// Interrupt at cycle k via the cancellation path, exactly as a
		// SIGINT or server shutdown would.
		ctx, cancel := context.WithCancel(context.Background())
		opts := simd.Options{P: p, Trace: &trace.Trace{}, ProgressEvery: 1}
		opts.Progress = func(pi simd.ProgressInfo) {
			if pi.Stats.Cycles >= k {
				cancel()
			}
		}
		m, err := simd.NewMachine[S](newDomain(), parse(), opts)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		if _, err := m.RunContext(ctx); !errors.Is(err, context.Canceled) {
			cancel()
			t.Fatalf("k=%d: interrupt: %v", k, err)
		}
		cancel()
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatalf("k=%d: snapshot: %v", k, err)
		}
		b, err := Encode[S](codec, Meta{Scheme: label}, snap)
		if err != nil {
			t.Fatalf("k=%d: encode: %v", k, err)
		}
		meta, decoded, err := Decode[S](codec, b)
		if err != nil {
			t.Fatalf("k=%d: decode: %v", k, err)
		}
		if meta.Scheme != label || meta.P != p {
			t.Fatalf("k=%d: meta %+v", k, meta)
		}
		resTr := &trace.Trace{}
		rm, err := simd.NewMachine[S](newDomain(), parse(), simd.Options{P: p, Trace: resTr})
		if err != nil {
			t.Fatal(err)
		}
		if err := rm.RestoreSnapshot(decoded); err != nil {
			t.Fatalf("k=%d: restore: %v", k, err)
		}
		got, err := rm.RunContext(context.Background())
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		if got != ref {
			t.Errorf("k=%d: resumed stats differ\n got %+v\nwant %+v", k, got, ref)
		}
		if !reflect.DeepEqual(resTr.Samples, refTr.Samples) || !reflect.DeepEqual(resTr.Events, refTr.Events) {
			t.Errorf("k=%d: resumed trace differs (samples %d/%d, events %d/%d)", k,
				len(resTr.Samples), len(refTr.Samples), len(resTr.Events), len(refTr.Events))
		}
	}
}

// TestResumeEquivalenceIDAStar extends the property across IDA*
// iteration boundaries: interrupt a parallel IDA* run mid-iteration,
// round-trip the checkpoint through the serialised format, resume, and
// require the aggregate result to match the uninterrupted run.
func TestResumeEquivalenceIDAStar(t *testing.T) {
	const label = "GP-DK"
	codec := wire.PuzzleCodec{}
	newDomain := func() search.CostDomain[puzzle.Node] { return puzzle.NewDomain(puzzle.Scramble(23, 30)) }
	parse := func() simd.Scheme[puzzle.Node] {
		sch, err := simd.ParseScheme[puzzle.Node](label)
		if err != nil {
			t.Fatal(err)
		}
		return sch
	}
	ref, err := simd.RunIDAStar[puzzle.Node](context.Background(), newDomain(), parse(), simd.Options{P: 16}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Iterations) < 2 {
		t.Fatalf("reference solved in %d iteration(s); want a multi-iteration instance", len(ref.Iterations))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var blob []byte
	opts := simd.Options{P: 16, CheckpointEvery: 2}
	sink := func(s *simd.Snapshot[puzzle.Node]) error {
		b, err := Encode[puzzle.Node](codec, Meta{Scheme: label}, s)
		if err != nil {
			return err
		}
		blob = b
		if s.IDA.Iteration >= 1 {
			cancel()
		}
		return nil
	}
	if _, err := simd.RunIDAStar[puzzle.Node](ctx, newDomain(), parse(), opts, 0, nil, sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt: %v", err)
	}
	if blob == nil {
		t.Fatal("no checkpoint written")
	}
	_, snap, err := Decode[puzzle.Node](codec, blob)
	if err != nil {
		t.Fatal(err)
	}
	if snap.IDA == nil {
		t.Fatal("checkpoint lacks IDA* state")
	}
	got, err := simd.RunIDAStar[puzzle.Node](context.Background(), newDomain(), parse(), simd.Options{P: 16}, 0, snap, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got.Stats != ref.Stats || got.Bound != ref.Bound {
		t.Errorf("resumed IDA* differs:\n got %+v bound %d\nwant %+v bound %d", got.Stats, got.Bound, ref.Stats, ref.Bound)
	}
	if !reflect.DeepEqual(got.Iterations, ref.Iterations) {
		t.Errorf("per-iteration stats differ:\n got %+v\nwant %+v", got.Iterations, ref.Iterations)
	}
}
