package simd_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"simdtree/internal/checkpoint"
	"simdtree/internal/metrics"
	"simdtree/internal/simd"
	"simdtree/internal/spill"
	"simdtree/internal/synthetic"
	"simdtree/internal/trace"
	"simdtree/internal/wire"
)

// TestSnapshotDetached pins who owns a snapshot's stacks now that they are
// an arena cloned from the machine's: nothing the machine does afterwards
// may reach them, and nothing a restore does may either.  For every
// Table 1 scheme — the first under a memory budget tight enough that the
// snapshot has to fault ghost levels back in before it can clone — a
// machine is snapshotted mid-run and then run to the end; the snapshot
// must still encode to the bytes it encoded to when taken, and two fresh
// machines restored from it, one after the other, must each finish with
// the Stats and the trace of the machine that simply kept going.
func TestSnapshotDetached(t *testing.T) {
	const p = 32
	codec := wire.SyntheticCodec{}
	newDomain := func() *synthetic.Tree { return synthetic.New(4000, 3) }
	meta := checkpoint.Meta{Domain: "detached", Scheme: "any"}
	for i, label := range simd.Table1Labels(0.85) {
		t.Run(label, func(t *testing.T) {
			parse := func() simd.Scheme[synthetic.Node] {
				sch, err := simd.ParseScheme[synthetic.Node](label)
				if err != nil {
					t.Fatal(err)
				}
				return sch
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tr := &trace.Trace{CaptureDonors: true}
			opts := simd.Options{P: p, Trace: tr, ProgressEvery: 1, Progress: func(pi simd.ProgressInfo) {
				if pi.Stats.Cycles == 25 {
					cancel()
				}
			}}
			var mgr *spill.Manager[synthetic.Node]
			if i == 0 {
				nodeBytes := int64(wire.NodeSize[synthetic.Node](codec, newDomain().Root()))
				opts.MemBudget = nodeBytes * p * 2
				var err error
				mgr, err = spill.NewManager[synthetic.Node](codec, spill.Config{Dir: t.TempDir(), MemBudget: opts.MemBudget, NodeBytes: int(nodeBytes)})
				if err != nil {
					t.Fatal(err)
				}
			}
			m, err := simd.NewMachine[synthetic.Node](newDomain(), parse(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if mgr != nil {
				m.SetSpiller(mgr)
			}
			if _, err := m.RunContext(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-run stop: %v", err)
			}
			ghosts := 0
			for pe := 0; pe < p; pe++ {
				ghosts += m.Arena().Ghost(pe)
			}
			if mgr != nil && ghosts == 0 {
				t.Fatal("the budget left no ghost level for the snapshot to fault in")
			}
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			taken, err := checkpoint.Encode[synthetic.Node](codec, meta, snap)
			if err != nil {
				t.Fatal(err)
			}

			want, err := m.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if want.Cycles <= snap.Cycle {
				t.Fatalf("the run ended at cycle %d, the snapshot is of cycle %d", want.Cycles, snap.Cycle)
			}
			resume := func() (metrics.Stats, *trace.Trace) {
				rtr := &trace.Trace{CaptureDonors: true}
				st, err := simd.ResumeContext[synthetic.Node](context.Background(), newDomain(), parse(), simd.Options{P: p, Trace: rtr}, snap)
				if err != nil {
					t.Fatal(err)
				}
				return st, rtr
			}
			for _, who := range []string{"first", "second"} {
				st, rtr := resume()
				if st != want {
					t.Errorf("%s restore: stats\n got %+v\nwant %+v", who, st, want)
				}
				if !reflect.DeepEqual(rtr, tr) {
					t.Errorf("%s restore: trace differs from the uninterrupted machine's (%d/%d samples, %d/%d events)",
						who, len(rtr.Samples), len(tr.Samples), len(rtr.Events), len(tr.Events))
				}
				again, err := checkpoint.Encode[synthetic.Node](codec, meta, snap)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, taken) {
					t.Errorf("after the %s restore the snapshot encodes to %d bytes that differ from the %d taken", who, len(again), len(taken))
				}
			}
		})
	}
}
