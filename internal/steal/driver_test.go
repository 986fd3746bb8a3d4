package steal

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"simdtree/internal/checkpoint"
	"simdtree/internal/puzzle"
	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/synthetic"
	"simdtree/internal/trace"
	"simdtree/internal/wire"
)

// TestDriverByteIdentity is the subsystem's load-bearing property: for
// every Table 1 scheme on both workloads, interrupting a single-machine
// run at cycle k, sharding the checkpoint across in-process shard hosts
// and finishing it under the distributed driver yields Stats, trace and
// periodic checkpoints byte-identical to the uninterrupted single-machine
// run.
func TestDriverByteIdentity(t *testing.T) {
	for _, label := range simd.Table1Labels(0.85) {
		label := label
		t.Run("synthetic/"+label, func(t *testing.T) {
			testDriver[synthetic.Node](t, wire.SyntheticCodec{}, label, 32, 3,
				func() search.Domain[synthetic.Node] { return synthetic.New(4000, 3) })
		})
		t.Run("puzzle/"+label, func(t *testing.T) {
			inst := puzzle.Scramble(5, 12)
			bound, _ := search.FinalIterationBound(puzzle.NewDomain(inst))
			testDriver[puzzle.Node](t, wire.PuzzleCodec{}, label, 64, 2,
				func() search.Domain[puzzle.Node] {
					return search.NewBounded(puzzle.NewDomain(inst), bound)
				})
		})
	}
}

// shardRanges splits [0, p) into n contiguous ranges.
func shardRanges(p, n int) [][2]int {
	ranges := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*p/n, (i+1)*p/n
		if lo < hi {
			ranges = append(ranges, [2]int{lo, hi})
		}
	}
	return ranges
}

// buildShards decodes a donated checkpoint into n in-process shard hosts.
func buildShards[S any](t *testing.T, codec wire.Codec[S], label string, p, n int, raw *checkpoint.RawSnapshot, newDomain func() search.Domain[S]) []Shard {
	t.Helper()
	var shards []Shard
	for _, r := range shardRanges(p, n) {
		lo, hi := r[0], r[1]
		h, err := NewHost[S](newDomain(), codec, label, simd.Options{P: p}, lo, hi, raw.Stacks[lo:hi], raw.DomainState)
		if err != nil {
			t.Fatalf("shard [%d, %d): %v", lo, hi, err)
		}
		shards = append(shards, LocalShard{H: h})
	}
	return shards
}

func testDriver[S any](t *testing.T, codec wire.Codec[S], label string, p, nShards int, newDomain func() search.Domain[S]) {
	t.Helper()
	const every = 16
	parse := func() simd.Scheme[S] {
		sch, err := simd.ParseScheme[S](label)
		if err != nil {
			t.Fatal(err)
		}
		return sch
	}

	// Reference: the uninterrupted single-machine run, with its trace and
	// every periodic checkpoint.
	refTr := &trace.Trace{}
	refCkpts := map[int][]byte{}
	m, err := simd.NewMachine[S](newDomain(), parse(), simd.Options{P: p, Trace: refTr, CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	m.OnCheckpoint(func(s *simd.Snapshot[S]) error {
		b, err := checkpoint.Encode[S](codec, checkpoint.Meta{Scheme: label}, s)
		if err != nil {
			return err
		}
		refCkpts[s.Cycle] = b
		return nil
	})
	ref, err := m.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Cycles < 3 {
		t.Fatalf("reference run too short to interrupt: %d cycles", ref.Cycles)
	}

	parts, err := simd.ParseSchemeParts(label)
	if err != nil {
		t.Fatal(err)
	}

	ks := map[int]bool{1: true, ref.Cycles / 2: true, ref.Cycles - 1: true}
	for k := range ks {
		// Interrupt a fresh run at cycle k — the donation point.
		ctx, cancel := context.WithCancel(context.Background())
		opts := simd.Options{P: p, Trace: &trace.Trace{}, ProgressEvery: 1}
		opts.Progress = func(pi simd.ProgressInfo) {
			if pi.Stats.Cycles >= k {
				cancel()
			}
		}
		im, err := simd.NewMachine[S](newDomain(), parse(), opts)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		if _, err := im.RunContext(ctx); !errors.Is(err, context.Canceled) {
			cancel()
			t.Fatalf("k=%d: interrupt: %v", k, err)
		}
		cancel()
		snap, err := im.Snapshot()
		if err != nil {
			t.Fatalf("k=%d: snapshot: %v", k, err)
		}
		donated, err := checkpoint.Encode[S](codec, checkpoint.Meta{Scheme: label}, snap)
		if err != nil {
			t.Fatalf("k=%d: encode: %v", k, err)
		}

		// The driving node sees only the encoded checkpoint: decode raw,
		// shard the stacks across hosts, and drive.
		meta, raw, err := checkpoint.DecodeRaw(donated)
		if err != nil {
			t.Fatalf("k=%d: decode raw: %v", k, err)
		}
		shards := buildShards[S](t, codec, label, p, nShards, raw, newDomain)
		gotCkpts := map[int][]byte{}
		d, err := NewDriver(Config{
			Key:             "test-key",
			Meta:            meta,
			Scheme:          parts,
			P:               p,
			CheckpointEvery: every,
			OnCheckpoint: func(_ context.Context, b []byte) error {
				_, rs, err := checkpoint.DecodeRaw(b)
				if err != nil {
					return err
				}
				gotCkpts[rs.Cycle] = b
				return nil
			},
		}, raw, shards)
		if err != nil {
			t.Fatalf("k=%d: driver: %v", k, err)
		}
		res, err := d.Run(context.Background())
		if err != nil {
			t.Fatalf("k=%d: distributed run: %v", k, err)
		}

		if res.Stats != ref {
			t.Errorf("k=%d: distributed stats differ\n got %+v\nwant %+v", k, res.Stats, ref)
		}
		if !reflect.DeepEqual(res.Trace.Samples, refTr.Samples) || !reflect.DeepEqual(res.Trace.Events, refTr.Events) {
			t.Errorf("k=%d: distributed trace differs (samples %d/%d, events %d/%d)", k,
				len(res.Trace.Samples), len(refTr.Samples), len(res.Trace.Events), len(refTr.Events))
		}
		for c, b := range gotCkpts {
			want, ok := refCkpts[c]
			if !ok {
				t.Errorf("k=%d: distributed run checkpointed at cycle %d, reference did not", k, c)
				continue
			}
			if !bytes.Equal(b, want) {
				t.Errorf("k=%d: checkpoint at cycle %d differs from the single-machine bytes", k, c)
			}
		}
		if rest := ref.Transfers - raw.Stats.Transfers; rest > 0 && res.Donations+res.LocalTransfers == 0 {
			t.Errorf("k=%d: %d transfers remained after donation but the distributed run moved nothing", k, rest)
		}
	}
}

// TestDriverDonatesAcrossShards pins that sharding an early checkpoint
// actually ships cross-shard donation frames (not just shard-local
// transfers) — the distributed case the subsystem exists for.
func TestDriverDonatesAcrossShards(t *testing.T) {
	const label = "GP-DK"
	const p = 32
	newDomain := func() search.Domain[synthetic.Node] { return synthetic.New(4000, 3) }
	sch, err := simd.ParseScheme[synthetic.Node](label)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := simd.Options{P: p, ProgressEvery: 1}
	opts.Progress = func(pi simd.ProgressInfo) {
		if pi.Stats.Cycles >= 1 {
			cancel()
		}
	}
	m, err := simd.NewMachine[synthetic.Node](newDomain(), sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt: %v", err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	donated, err := checkpoint.Encode[synthetic.Node](wire.SyntheticCodec{}, checkpoint.Meta{Scheme: label}, snap)
	if err != nil {
		t.Fatal(err)
	}
	meta, raw, err := checkpoint.DecodeRaw(donated)
	if err != nil {
		t.Fatal(err)
	}
	shards := buildShards[synthetic.Node](t, wire.SyntheticCodec{}, label, p, 2, raw, newDomain)
	parts, err := simd.ParseSchemeParts(label)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(Config{Key: "k", Meta: meta, Scheme: parts, P: p}, raw, shards)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Donations == 0 {
		t.Error("one cycle of work sharded across two nodes produced no cross-shard donations")
	}
}

// TestDriverResumeFromCancelCheckpoint drives a sharded run, cancels it
// mid-flight, and finishes from the final cancel checkpoint on a fresh
// set of shards — the failover path — requiring the completed schedule to
// match the uninterrupted single-machine run.
func TestDriverResumeFromCancelCheckpoint(t *testing.T) {
	const label = "GP-DP"
	const p = 32
	newDomain := func() search.Domain[synthetic.Node] { return synthetic.New(4000, 7) }
	sch, err := simd.ParseScheme[synthetic.Node](label)
	if err != nil {
		t.Fatal(err)
	}
	refTr := &trace.Trace{}
	ref, err := simd.Run[synthetic.Node](newDomain(), sch, simd.Options{P: p, Trace: refTr})
	if err != nil {
		t.Fatal(err)
	}

	// Donate at cycle 1.
	ctx, cancel := context.WithCancel(context.Background())
	opts := simd.Options{P: p, Trace: &trace.Trace{}, ProgressEvery: 1}
	opts.Progress = func(pi simd.ProgressInfo) {
		if pi.Stats.Cycles >= 1 {
			cancel()
		}
	}
	m, err := simd.NewMachine[synthetic.Node](newDomain(), sch, opts)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if _, err := m.RunContext(ctx); !errors.Is(err, context.Canceled) {
		cancel()
		t.Fatalf("interrupt: %v", err)
	}
	cancel()
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	donated, err := checkpoint.Encode[synthetic.Node](wire.SyntheticCodec{}, checkpoint.Meta{Scheme: label}, snap)
	if err != nil {
		t.Fatal(err)
	}
	meta, raw, err := checkpoint.DecodeRaw(donated)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := simd.ParseSchemeParts(label)
	if err != nil {
		t.Fatal(err)
	}

	// First distributed leg: cancel after a few more cycles; the driver
	// writes a final checkpoint of the exact prefix.
	shards := buildShards[synthetic.Node](t, wire.SyntheticCodec{}, label, p, 2, raw, newDomain)
	var last []byte
	dctx, dcancel := context.WithCancel(context.Background())
	defer dcancel()
	d, err := NewDriver(Config{
		Key: "k", Meta: meta, Scheme: parts, P: p,
		CheckpointEvery: 1 << 30, // periodic effectively off; final cancel checkpoint only
		OnCheckpoint: func(_ context.Context, b []byte) error {
			last = b
			return nil
		},
		ProgressEvery: 1,
		Progress: func(pi simd.ProgressInfo, _ []int) {
			if pi.Stats.Cycles >= raw.Cycle+3 {
				dcancel()
			}
		},
	}, raw, shards)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(dctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("distributed interrupt: %v", err)
	}
	if last == nil {
		t.Fatal("cancelled driver wrote no final checkpoint")
	}

	// Second leg: fresh shards from the cancel checkpoint, run to the end.
	meta2, raw2, err := checkpoint.DecodeRaw(last)
	if err != nil {
		t.Fatal(err)
	}
	if raw2.Cycle <= raw.Cycle {
		t.Fatalf("cancel checkpoint at cycle %d did not advance past donation cycle %d", raw2.Cycle, raw.Cycle)
	}
	shards2 := buildShards[synthetic.Node](t, wire.SyntheticCodec{}, label, p, 3, raw2, newDomain)
	d2, err := NewDriver(Config{Key: "k", Meta: meta2, Scheme: parts, P: p}, raw2, shards2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != ref {
		t.Errorf("resumed distributed stats differ\n got %+v\nwant %+v", res.Stats, ref)
	}
	if !reflect.DeepEqual(res.Trace.Samples, refTr.Samples) || !reflect.DeepEqual(res.Trace.Events, refTr.Events) {
		t.Errorf("resumed distributed trace differs")
	}
}

// TestDriverProgressIsTheSingleNodeRecord pins that a distributed run
// reports the schedule a single machine would: every simd.ProgressInfo the
// driver hands its Progress hook equals the one a single-node Machine
// reports at the same cycle, Ledger and Active alike, and the shards'
// shares of Active add up to it.
func TestDriverProgressIsTheSingleNodeRecord(t *testing.T) {
	const label = "GP-DK"
	const p = 32
	codec := wire.SyntheticCodec{}
	newDomain := func() search.Domain[synthetic.Node] { return synthetic.New(4000, 3) }
	sch, err := simd.ParseScheme[synthetic.Node](label)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: every tick of the uninterrupted single-node run.
	ref := map[int]simd.ProgressInfo{}
	opts := simd.Options{P: p, ProgressEvery: 1}
	opts.Progress = func(pi simd.ProgressInfo) { ref[pi.Stats.Cycles] = pi }
	refStats, err := simd.Run[synthetic.Node](newDomain(), sch, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Yield at cycle k, as a node does when its job is stolen.
	k := refStats.Cycles / 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Progress = func(pi simd.ProgressInfo) {
		if pi.Stats.Cycles >= k {
			cancel()
		}
	}
	m, err := simd.NewMachine[synthetic.Node](newDomain(), sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt: %v", err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	donated, err := checkpoint.Encode[synthetic.Node](codec, checkpoint.Meta{Scheme: label}, snap)
	if err != nil {
		t.Fatal(err)
	}
	meta, raw, err := checkpoint.DecodeRaw(donated)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := simd.ParseSchemeParts(label)
	if err != nil {
		t.Fatal(err)
	}

	ticks := 0
	d, err := NewDriver(Config{
		Key: "k", Meta: meta, Scheme: parts, P: p, ProgressEvery: 1,
		Progress: func(pi simd.ProgressInfo, shardActive []int) {
			ticks++
			c := pi.Stats.Cycles
			if want, ok := ref[c]; !ok || pi != want {
				t.Errorf("cycle %d: distributed record differs from the single-node one\n got %+v\nwant %+v", c, pi, want)
			}
			if len(shardActive) != 2 {
				t.Fatalf("cycle %d: %d shard shares, want 2", c, len(shardActive))
			}
			if sum := shardActive[0] + shardActive[1]; sum != pi.Active {
				t.Errorf("cycle %d: shard shares %v sum to %d, want Active %d", c, shardActive, sum, pi.Active)
			}
		},
	}, raw, buildShards[synthetic.Node](t, codec, label, p, 2, raw, newDomain))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if want := refStats.Cycles - k; ticks != want {
		t.Errorf("driver reported %d ticks, want %d (cycles %d..%d)", ticks, want, k+1, refStats.Cycles)
	}
}
