package spill_test

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"simdtree/internal/checkpoint"
	"simdtree/internal/metrics"
	"simdtree/internal/puzzle"
	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/spill"
	"simdtree/internal/synthetic"
	"simdtree/internal/trace"
	"simdtree/internal/wire"
)

// artifacts is every observable output of one run: the final statistics,
// the full trace (donor lists included), the serialised mid-run
// checkpoints in order, and the final-state checkpoint.  The spill
// equivalence contract is that none of these depend on the memory budget.
type artifacts struct {
	stats metrics.Stats
	tr    *trace.Trace
	mids  [][]byte
	final []byte
	spill spill.Stats
}

// runBudgeted performs one full run under the given memory budget
// (0 = unbounded), capturing donors, checkpointing every 32 cycles, and
// snapshotting the quiescent machine at the end.
func runBudgeted[S any](t *testing.T, dom search.Domain[S], codec wire.Codec[S], label string, p int, budget int64) artifacts {
	t.Helper()
	sch, err := simd.ParseScheme[S](label)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{CaptureDonors: true}
	opts := simd.Options{P: p, Trace: tr, CheckpointEvery: 32, MemBudget: budget}
	m, err := simd.NewMachine[S](dom, sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	var mgr *spill.Manager[S]
	if budget > 0 {
		mgr, err = spill.NewManager[S](codec, spill.Config{
			Dir:       t.TempDir(),
			MemBudget: budget,
			NodeBytes: wire.NodeSize(codec, dom.Root()),
		})
		if err != nil {
			t.Fatal(err)
		}
		m.SetSpiller(mgr)
	}
	a := artifacts{tr: tr}
	meta := checkpoint.Meta{Domain: "spill-equivalence", Scheme: label}
	m.OnCheckpoint(func(snap *simd.Snapshot[S]) error {
		blob, err := checkpoint.Encode[S](codec, meta, snap)
		if err != nil {
			return err
		}
		a.mids = append(a.mids, blob)
		return nil
	})
	a.stats, err = m.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a.final, err = checkpoint.Encode[S](codec, meta, snap)
	if err != nil {
		t.Fatal(err)
	}
	if mgr != nil {
		a.spill = mgr.Stats()
	}
	return a
}

// checkEquivalent requires a budgeted run to be output-identical to the
// unbounded baseline: same stats, deep-equal trace, and byte-identical
// checkpoints — every mid-run one and the final one.
func checkEquivalent(t *testing.T, name string, base, got artifacts) {
	t.Helper()
	if got.stats != base.stats {
		t.Errorf("%s: stats diverged\n got %+v\nwant %+v", name, got.stats, base.stats)
	}
	if !reflect.DeepEqual(got.tr, base.tr) {
		t.Errorf("%s: trace diverged (%d/%d samples, %d/%d events)",
			name, len(got.tr.Samples), len(base.tr.Samples), len(got.tr.Events), len(base.tr.Events))
	}
	if len(got.mids) != len(base.mids) {
		t.Errorf("%s: %d mid-run checkpoints, want %d", name, len(got.mids), len(base.mids))
	} else {
		for i := range got.mids {
			if !bytes.Equal(got.mids[i], base.mids[i]) {
				t.Errorf("%s: mid-run checkpoint %d diverged (%d bytes vs %d)",
					name, i, len(got.mids[i]), len(base.mids[i]))
			}
		}
	}
	if !bytes.Equal(got.final, base.final) {
		t.Errorf("%s: final checkpoint diverged (%d bytes vs %d)", name, len(got.final), len(base.final))
	}
}

// TestSpillEquivalence is the subsystem's core contract: across all six
// Table 1 schemes on both domains, a run under a tight budget (a few
// nodes per PE, forcing constant eviction and fault traffic) and a mid
// budget (occasional spill) produces exactly the outputs of an unbounded
// run.  The tight synthetic configuration must also demonstrate real
// pressure — at least 1000 evictions — so the identity is not vacuous.
func TestSpillEquivalence(t *testing.T) {
	for _, label := range simd.Table1Labels(0.85) {
		t.Run("synthetic/"+label, func(t *testing.T) {
			const p = 256
			tree := synthetic.New(120000, 42)
			nodeBytes := int64(wire.NodeSize[synthetic.Node](wire.SyntheticCodec{}, tree.Root()))
			base := runBudgeted[synthetic.Node](t, tree, wire.SyntheticCodec{}, label, p, 0)
			if base.stats.W != 120000 {
				t.Fatalf("synthetic tree W=%d, want exactly 120000", base.stats.W)
			}
			tight := runBudgeted[synthetic.Node](t, tree, wire.SyntheticCodec{}, label, p, nodeBytes*p*3)
			checkEquivalent(t, "tight", base, tight)
			if tight.spill.Evictions < 1000 {
				t.Errorf("tight budget evicted only %d segments, want >= 1000 (budget not tight enough to prove anything)",
					tight.spill.Evictions)
			}
			if tight.spill.Faults == 0 || tight.spill.BytesRead == 0 {
				t.Errorf("tight budget faulted %d segments (%d bytes read); the restore path went unexercised",
					tight.spill.Faults, tight.spill.BytesRead)
			}
			mid := runBudgeted[synthetic.Node](t, tree, wire.SyntheticCodec{}, label, p, nodeBytes*p*16)
			checkEquivalent(t, "mid", base, mid)
		})
		t.Run("puzzle/"+label, func(t *testing.T) {
			const p = 32
			inst := puzzle.Scramble(7, 30)
			dom := puzzle.NewDomain(inst)
			bound, _ := search.FinalIterationBound(dom)
			nodeBytes := int64(wire.NodeSize[puzzle.Node](wire.PuzzleCodec{}, puzzle.Goal()))
			run := func(budget int64) artifacts {
				return runBudgeted[puzzle.Node](t, search.NewBounded(dom, bound), wire.PuzzleCodec{}, label, p, budget)
			}
			base := run(0)
			if base.stats.Goals == 0 {
				t.Fatal("puzzle run found no goal at the final iteration bound")
			}
			tight := run(nodeBytes * p) // one node per PE: constant pressure
			checkEquivalent(t, "tight", base, tight)
			if tight.spill.Evictions == 0 {
				t.Error("tight puzzle budget caused no evictions; the sweep never engaged")
			}
			mid := run(nodeBytes * p * 3)
			checkEquivalent(t, "mid", base, mid)
		})
	}
}

// TestSpillBudgetRequiresSpiller pins the fail-closed contract: a machine
// given a budget but no residency manager refuses to run rather than
// silently running unbounded.
func TestSpillBudgetRequiresSpiller(t *testing.T) {
	sch, err := simd.ParseScheme[synthetic.Node]("GP-DK")
	if err != nil {
		t.Fatal(err)
	}
	m, err := simd.NewMachine[synthetic.Node](synthetic.New(100, 1), sch, simd.Options{P: 8, MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunContext(context.Background()); err == nil {
		t.Fatal("RunContext with MemBudget but no spiller succeeded, want error")
	}
}

// TestSpillStatsAccounting sanity-checks the manager's counters on one
// heavy run: write and read volumes match the eviction/fault traffic, no
// segments leak past the end of the run's sweeps, and the peak resident
// count respects the configured budget's eviction goal.
func TestSpillStatsAccounting(t *testing.T) {
	tree := synthetic.New(20000, 42)
	codec := wire.SyntheticCodec{}
	nodeBytes := int64(wire.NodeSize[synthetic.Node](codec, tree.Root()))
	const p = 256
	sch, err := simd.ParseScheme[synthetic.Node]("GP-DK")
	if err != nil {
		t.Fatal(err)
	}
	m, err := simd.NewMachine[synthetic.Node](tree, sch, simd.Options{P: p, MemBudget: nodeBytes * p * 3})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := spill.NewManager[synthetic.Node](codec, spill.Config{
		Dir: t.TempDir(), MemBudget: nodeBytes * p * 3, NodeBytes: int(nodeBytes),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetSpiller(mgr)
	if _, err := m.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := mgr.Stats()
	if st.Evictions == 0 || st.Faults == 0 {
		t.Fatalf("expected spill traffic, got %+v", st)
	}
	if st.Faults > st.Evictions {
		t.Errorf("faulted %d segments but only %d were ever evicted", st.Faults, st.Evictions)
	}
	if st.BytesWritten == 0 || st.BytesRead > st.BytesWritten {
		t.Errorf("read %d bytes but wrote %d; reads must be a subset of writes", st.BytesRead, st.BytesWritten)
	}
	if st.PeakResident == 0 {
		t.Error("peak resident count never recorded")
	}
}

// TestRunSpillReleasesLog runs 200 budgeted runs back to back with the
// collector off, so no finalizer can close a forgotten file, and requires
// the process to hold as many descriptors afterwards as before: the cleanup
// Attach returns closes the manager's segment log itself.
func TestRunSpillReleasesLog(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	countFDs := func() int {
		t.Helper()
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	sch, err := simd.ParseScheme[synthetic.Node]("GP-DK")
	if err != nil {
		t.Fatal(err)
	}
	tree := synthetic.New(30_000, 7)
	run := func() spill.Stats { // the pinned spill-tight run
		m, err := simd.NewMachine[synthetic.Node](tree, sch, simd.Options{P: 256, MemBudget: 8448})
		if err != nil {
			t.Fatal(err)
		}
		mgr, done, err := spill.Attach(m, wire.SyntheticCodec{}, tree.Root(), 8448, "")
		if err != nil {
			t.Fatal(err)
		}
		defer done()
		if _, err := m.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		return mgr.Stats()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := countFDs()
	for i := 0; i < 200; i++ {
		if run().Evictions == 0 {
			t.Fatal("the run never evicted, so never opened a log")
		}
	}
	if after := countFDs(); after != before {
		t.Fatalf("%d descriptors open before 200 budgeted runs, %d after", before, after)
	}
}
