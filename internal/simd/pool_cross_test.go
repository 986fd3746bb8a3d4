package simd_test

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"simdtree/internal/checkpoint"
	"simdtree/internal/simd"
	"simdtree/internal/synthetic"
	"simdtree/internal/trace"
	"simdtree/internal/wire"
)

// TestPoolCutOverInvisible runs a D^K search whose busy-PE count climbs
// from one PE through every worker count's pool cut-over and falls back
// through it as the tree drains, so each sharded run expands some cycles on
// the calling goroutine and some on the pool.  Stats, trace (donor lists
// included) and every mid-run checkpoint's bytes must equal the
// Workers = 1 run's.
func TestPoolCutOverInvisible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // the pool is not started on one P
	const p, label = 8192, "GP-DK"
	w := int64(600_000)
	if testing.Short() {
		w = 200_000
	}
	tree := synthetic.New(w, 23)
	run := func(workers int) (any, *trace.Trace, [][]byte) {
		sch, err := simd.ParseScheme[synthetic.Node](label)
		if err != nil {
			t.Fatal(err)
		}
		tr := &trace.Trace{CaptureDonors: true}
		m, err := simd.NewMachine[synthetic.Node](tree, sch, simd.Options{P: p, Workers: workers, Trace: tr, CheckpointEvery: 7})
		if err != nil {
			t.Fatal(err)
		}
		var blobs [][]byte
		m.OnCheckpoint(func(snap *simd.Snapshot[synthetic.Node]) error {
			blob, err := checkpoint.Encode[synthetic.Node](wire.SyntheticCodec{}, checkpoint.Meta{Domain: "cut-over", Scheme: label}, snap)
			blobs = append(blobs, blob)
			return err
		})
		stats, err := m.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return stats, tr, blobs
	}

	stats, tr, blobs := run(1)
	peak := 0
	for _, s := range tr.Samples {
		peak = max(peak, s.Active)
	}
	last := tr.Samples[len(tr.Samples)-1].Active
	if cut := 8 * simd.PoolShardMin; peak < cut || last >= 2*simd.PoolShardMin || len(blobs) < 5 {
		t.Fatalf("busy PEs peak at %d and end at %d over %d checkpoints: the run does not cross the cut-overs (%d..%d)",
			peak, last, len(blobs), 2*simd.PoolShardMin, cut)
	}
	for _, workers := range []int{2, 3, 8} {
		s, r, b := run(workers)
		if s != stats {
			t.Errorf("workers=%d: stats diverged\n got %+v\nwant %+v", workers, s, stats)
		}
		if !reflect.DeepEqual(r, tr) {
			t.Errorf("workers=%d: trace diverged (%d/%d samples, %d/%d events)", workers, len(r.Samples), len(tr.Samples), len(r.Events), len(tr.Events))
		}
		if len(b) != len(blobs) {
			t.Fatalf("workers=%d: %d checkpoints, want %d", workers, len(b), len(blobs))
		}
		for i := range b {
			if !bytes.Equal(b[i], blobs[i]) {
				t.Errorf("workers=%d: checkpoint %d differs (%d bytes vs %d)", workers, i, len(b[i]), len(blobs[i]))
				break
			}
		}
	}
}
