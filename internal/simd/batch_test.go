package simd_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"simdtree/internal/checkpoint"
	"simdtree/internal/metrics"
	"simdtree/internal/puzzle"
	"simdtree/internal/queens"
	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
	"simdtree/internal/trace"
	"simdtree/internal/trigger"
	"simdtree/internal/wire"
)

// oneCycleLanes is a machine's lanes that cannot say how full its stacks
// are, so the loop asks them for one cycle a call: the schedule as it ran
// before cycles were batched.
type oneCycleLanes struct{ simd.Lanes }

func (oneCycleLanes) Held() []int32 { return nil }

func oneCycle(l simd.Lanes) simd.Lanes { return oneCycleLanes{l} }
func batched(l simd.Lanes) simd.Lanes  { return l }

// batchCase is one configuration TestBatchedEqualsOneCycle runs both ways.
type batchCase[S any] struct {
	domain func() search.Domain[S]
	codec  wire.Codec[S]
	label  string
	split  string
	opts   simd.Options
}

// batchRun is everything a run lets a caller observe.
type batchRun struct {
	stats    metrics.Stats
	err      string
	trace    *trace.Trace
	ckpts    [][]byte // every checkpoint the sink was handed, encoded
	progress []simd.ProgressInfo
	final    []byte // the machine's snapshot after the run, encoded
	calls    int    // Cycle calls
}

// run runs c through wrap; cancelAt > 0 cancels the run's context once a
// Cycle call has taken the run to that many cycles, and the run is then
// resumed in place to the end.
func (c batchCase[S]) run(t *testing.T, wrap func(simd.Lanes) simd.Lanes, cancelAt int) batchRun {
	t.Helper()
	sch, err := simd.ParseScheme[S](c.label)
	if err != nil {
		t.Fatal(err)
	}
	switch c.split {
	case "top":
		sch.Splitter = stack.TopNode[S]{}
	case "half":
		sch.Splitter = stack.HalfStack[S]{}
	}
	var out batchRun
	opts := c.opts
	opts.Trace = &trace.Trace{CaptureDonors: true}
	if opts.ProgressEvery > 0 {
		opts.Progress = func(pi simd.ProgressInfo) { out.progress = append(out.progress, pi) }
	}
	m, err := simd.NewMachine[S](c.domain(), sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(snap *simd.Snapshot[S]) []byte {
		b, err := checkpoint.Encode[S](c.codec, checkpoint.Meta{Domain: c.codec.Name(), Scheme: c.label}, snap)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	m.OnCheckpoint(func(snap *simd.Snapshot[S]) error {
		out.ckpts = append(out.ckpts, encode(snap))
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lanes := func(l simd.Lanes) simd.Lanes {
		return &cancelLanes{Lanes: wrap(l), at: cancelAt, cancel: cancel, calls: &out.calls}
	}
	st, err := simd.RunThrough[S](ctx, m, lanes)
	if cancelAt > 0 {
		if !errors.Is(err, context.Canceled) || !st.Cancelled {
			t.Fatalf("cancelled run returned %v (cancelled %v)", err, st.Cancelled)
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		out.ckpts = append(out.ckpts, encode(snap)) // the prefix it stopped at
		st, err = simd.RunThrough[S](context.Background(), m, wrap)
	}
	out.stats, out.trace = st, opts.Trace
	if err != nil {
		out.err = err.Error()
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	out.final = encode(snap)
	return out
}

// cancelLanes counts the Cycle calls and, when at is positive, cancels the
// run once they have run at cycles.
type cancelLanes struct {
	simd.Lanes
	ran, at int
	cancel  func()
	calls   *int
}

func (l *cancelLanes) Cycle(ctx context.Context, infos []simd.CycleInfo) error {
	err := l.Lanes.Cycle(ctx, infos)
	*l.calls++
	if l.ran += len(infos); l.at > 0 && l.ran >= l.at {
		l.cancel()
	}
	return err
}

// sameRun fails unless two runs are indistinguishable.
func sameRun(t *testing.T, got, want batchRun) {
	t.Helper()
	if got.stats != want.stats || got.err != want.err {
		t.Fatalf("batched: %+v %q\none cycle a call: %+v %q", got.stats, got.err, want.stats, want.err)
	}
	if !reflect.DeepEqual(got.trace, want.trace) {
		t.Fatalf("traces differ")
	}
	if !reflect.DeepEqual(got.progress, want.progress) {
		t.Fatalf("progress ticks differ: %d and %d", len(got.progress), len(want.progress))
	}
	if len(got.ckpts) != len(want.ckpts) {
		t.Fatalf("%d checkpoints, one cycle a call took %d", len(got.ckpts), len(want.ckpts))
	}
	for i := range got.ckpts {
		if string(got.ckpts[i]) != string(want.ckpts[i]) {
			t.Fatalf("checkpoint %d differs", i)
		}
	}
	if string(got.final) != string(want.final) {
		t.Fatalf("final snapshots differ")
	}
}

// check runs c batched and one cycle a call, plain, with a checkpoint and
// progress cadence, under a cycle budget, and cancelled mid-way and
// resumed, and requires the same run every time.  It returns the Cycle
// calls batching saved on the plain run.
func (c batchCase[S]) check(t *testing.T) (callsSaved int) {
	plain := c.run(t, oneCycle, 0)
	batch := c.run(t, batched, 0)
	sameRun(t, batch, plain)

	cad := c
	cad.opts.CheckpointEvery, cad.opts.ProgressEvery = 5, 3
	sameRun(t, cad.run(t, batched, 0), cad.run(t, oneCycle, 0))

	budget := c
	budget.opts.MaxCycles = plain.stats.Cycles / 2
	got := budget.run(t, batched, 0)
	if got.err == "" || got.stats.Cycles != budget.opts.MaxCycles {
		t.Fatalf("budget run: %+v %q", got.stats, got.err)
	}
	sameRun(t, got, budget.run(t, oneCycle, 0))

	// A cancel lands at the next batch boundary, so the batched run may stop
	// later than the unbatched one; each must be an exact prefix, which
	// resuming it to the end shows.
	cut := c
	cut.opts.CheckpointEvery = 1 << 30 // only the stop-time checkpoint
	at := plain.stats.Cycles / 3
	b, o := cut.run(t, batched, at), cut.run(t, oneCycle, at)
	if string(b.final) != string(plain.final) || string(o.final) != string(plain.final) ||
		b.stats != plain.stats || o.stats != plain.stats {
		t.Fatalf("a cancelled and resumed run is not the uncancelled run")
	}
	return plain.calls - batch.calls
}

// TestBatchedEqualsOneCycle holds the batched schedule to the unbatched one
// on every Table 1 scheme × splitter × {synthetic, bounded puzzle, queens}
// × Workers {1, 4}: the same stats, traces and checkpoint bytes.
func TestBatchedEqualsOneCycle(t *testing.T) {
	inst := puzzle.Scramble(3, 30)
	pz := puzzle.NewDomain(inst)
	bound, _ := search.FinalIterationBound(pz)
	for _, label := range refLabels {
		for _, split := range []string{"bottom", "top", "half"} {
			for _, workers := range []int{1, 4} {
				opts := simd.Options{P: 256, Workers: workers}
				// At four workers the synthetic tree is searched by P = 1024, whose
				// batches are wide enough to wake the pool: each shard then runs
				// several cycles between two barriers.
				wide := simd.Options{P: 1024, Workers: workers}
				if workers == 1 {
					wide = opts
				}
				t.Run(fmt.Sprintf("%s/%s/workers=%d", label, split, workers), func(t *testing.T) {
					t.Parallel()
					saved := []int{
						batchCase[synthetic.Node]{func() search.Domain[synthetic.Node] { return synthetic.New(int64(wide.P)*120, 4) }, wire.SyntheticCodec{}, label, split, wide}.check(t),
						batchCase[puzzle.Node]{func() search.Domain[puzzle.Node] { return search.NewBounded[puzzle.Node](pz, bound) }, wire.PuzzleCodec{}, label, split, opts}.check(t),
						batchCase[queens.Node]{func() search.Domain[queens.Node] { return queens.New(9) }, wire.QueensCodec{}, label, split, opts}.check(t),
					}
					if saved[0] <= 0 {
						t.Fatalf("batching saved no Cycle call on the synthetic tree (%v): the batched path was not exercised", saved)
					}
				})
			}
		}
	}
}

// TestHorizonNeverFiresEarly replays, on random stack-size histograms,
// ledgers and built-in triggers, cycle by cycle what the sizes allow —
// every PE popping a node a cycle and pushing successors, from none at all
// (the corner where A falls fastest) to a few, and runs of one or none,
// where PEs work on past their sizes and then run dry (w grows while A
// falls) — and requires that the trigger never fires before the last
// cycle of the batch the loop asks for.
func TestHorizonNeverFiresEarly(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const ucalc = 30 * time.Millisecond
	for trial := 0; trial < 3000; trial++ {
		p := 1 + rng.IntN(300)
		var trig trigger.Trigger
		switch rng.IntN(5) {
		case 0:
			trig = trigger.Static{X: rng.Float64()}
		case 1:
			trig = trigger.DK{}
		case 2:
			trig = trigger.DKGamma{Gamma: 0.1 + 3*rng.Float64()}
		case 3:
			trig = trigger.DP{}
		default:
			trig = trigger.AnyIdle{}
		}
		sizes := make([]int, p)
		held := make([]int32, stack.MaxBatch+1)
		for pe := range sizes {
			sizes[pe] = rng.IntN(stack.MaxBatch + 5)
			if rng.IntN(3) == 0 {
				sizes[pe] = 0
			}
			held[min(sizes[pe], stack.MaxBatch)]++
		}
		cycles := rng.IntN(20)
		var busy int
		for range cycles {
			busy += rng.IntN(p + 1)
		}
		ledger := simd.Ledger{
			InitDone:     true,
			PhaseCycles:  cycles,
			PhaseElapsed: time.Duration(cycles) * ucalc,
			PhaseWork:    time.Duration(busy) * ucalc,
			PhaseIdle:    time.Duration(cycles*p-busy) * ucalc,
			EstLB:        time.Duration(rng.IntN(200)) * time.Millisecond,
		}
		k := simd.Horizon(p, trig, ledger, held)
		if k < 1 || k > stack.MaxBatch {
			t.Fatalf("trial %d: horizon %d", trial, k)
		}
		for replay := 0; replay < 8; replay++ {
			left := append([]int(nil), sizes...)
			st := trigger.State{P: p, Cycles: ledger.PhaseCycles, Elapsed: ledger.PhaseElapsed, Work: ledger.PhaseWork, Idle: ledger.PhaseIdle, EstLB: ledger.EstLB}
			for j := 0; j < k-1; j++ {
				active := 0
				for pe, s := range left {
					if s > 0 {
						active++
						left[pe] = s - 1
						switch {
						case replay == 1:
							left[pe] += rng.IntN(4)
						case replay > 1:
							left[pe] += rng.IntN(2)
						}
					}
				}
				st.Active = active
				st.Cycles++
				st.Elapsed += ucalc
				st.Work += time.Duration(active) * ucalc
				st.Idle += time.Duration(p-active) * ucalc
				if active < p && trig.ShouldBalance(st) {
					t.Fatalf("trial %d (%s, P=%d, held %v, ledger %+v): horizon %d, but the trigger fires after cycle %d of the batch",
						trial, trig.Name(), p, held, ledger, k, j)
				}
			}
		}
	}
}

// TestHorizonEarlyOut: the early-out that spares the size scan when the
// trigger fires after one cycle whatever the sizes, given at most busy PEs
// with work, never changes the horizon, never decides on a bound of P, and
// spares the scan in some trials.
func TestHorizonEarlyOut(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const ucalc = 30 * time.Millisecond
	spared := 0
	for trial := 0; trial < 3000; trial++ {
		p := 1 + rng.IntN(300)
		trig := []trigger.Trigger{trigger.Static{X: rng.Float64()}, trigger.DK{}, trigger.DKGamma{Gamma: 0.1 + 3*rng.Float64()}, trigger.DP{}, trigger.AnyIdle{}}[rng.IntN(5)]
		held := make([]int32, stack.MaxBatch+1)
		for range p {
			s := rng.IntN(stack.MaxBatch + 5)
			if trial%4 == 0 { // every PE busy: the bound is P and says nothing
				s++
			} else if rng.IntN(3) == 0 {
				s = 0
			}
			held[min(s, stack.MaxBatch)]++
		}
		cycles := rng.IntN(20)
		var busy int
		for range cycles {
			busy += rng.IntN(p + 1)
		}
		ledger := simd.Ledger{
			InitDone:     true,
			PhaseCycles:  cycles,
			PhaseElapsed: time.Duration(cycles) * ucalc,
			PhaseWork:    time.Duration(busy) * ucalc,
			PhaseIdle:    time.Duration(cycles*p-busy) * ucalc,
			EstLB:        time.Duration(rng.IntN(200)) * time.Millisecond,
		}
		want := simd.Horizon(p, trig, ledger, held)
		h1 := p - int(held[0])
		for _, bound := range []int{h1, h1 + rng.IntN(p-h1+1)} {
			k, read := simd.HorizonBusy(p, trig, ledger, held, bound)
			if k != want {
				t.Fatalf("trial %d (%s, P=%d, held %v, ledger %+v): horizon %d with at most %d PEs busy, %d without the bound",
					trial, trig.Name(), p, held, ledger, k, bound, want)
			}
			if !read && h1 == p {
				t.Fatalf("trial %d (%s, P=%d): the early-out decided with every PE busy, where a bound of P says nothing", trial, trig.Name(), p)
			}
			if !read {
				spared++
			}
		}
	}
	if spared == 0 {
		t.Fatal("the early-out never spared the scan")
	}
	t.Logf("the early-out spared %d of 6000 scans", spared)

	// After a phase the machine counts the PEs left holding work, so under
	// S^1.00, which balances whenever one PE is idle, the loop reads the
	// stack sizes after a phase only when every PE holds work: any other
	// scan there ends in the one-cycle batch the count already made
	// certain.  The steal driver's lanes count nothing, and keep the bound
	// of the PEs busy before the phase plus its transfers.
	storm := func(p int, w int64) scanCount {
		t.Helper()
		sch, err := simd.ParseScheme[synthetic.Node]("nGP-S1.00")
		if err != nil {
			t.Fatal(err)
		}
		m, err := simd.NewMachine[synthetic.Node](synthetic.New(w, 1), sch, simd.Options{P: p})
		if err != nil {
			t.Fatal(err)
		}
		var c scanCount
		if _, err := simd.RunThrough(context.Background(), m, func(l simd.Lanes) simd.Lanes { return &scanLanes{Lanes: l, c: &c} }); err != nil {
			t.Fatal(err)
		}
		if c.phases == 0 || c.scans == 0 {
			t.Fatalf("P=%d: %d phases, %d scans; the storm shape should have both", p, c.phases, c.scans)
		}
		if c.wasted != 0 {
			t.Fatalf("P=%d: %d of the %d scans after a phase found an idle PE, which the phase's count rules out", p, c.wasted, c.afterPhase)
		}
		return c
	}
	c := storm(4096, 100_000)
	t.Logf("P=4096: %d phases, %d scans, %d of them after a phase", c.phases, c.scans, c.afterPhase)
	if !testing.Short() {
		c = storm(65536, 2_000_000)
		t.Logf("P=65536 (lb-storm's shape): %d phases, %d scans, %d of them after a phase", c.phases, c.scans, c.afterPhase)
	}
}

// scanCount tallies a run's load-balancing phases and stack-size scans:
// afterPhase the scans at a boundary right after a phase, wasted those
// that found an idle PE.
type scanCount struct {
	phases, scans, afterPhase, wasted int
	phased                            bool
}

// scanLanes counts the calls of the lanes it wraps into c.
type scanLanes struct {
	simd.Lanes
	c *scanCount
}

func (l *scanLanes) Held() []int32 {
	h := l.Lanes.Held()
	l.c.scans++
	if l.c.phased {
		l.c.afterPhase++
		if h[0] > 0 {
			l.c.wasted++
		}
	}
	return h
}

func (l *scanLanes) Cycle(ctx context.Context, infos []simd.CycleInfo) error {
	l.c.phased = false
	return l.Lanes.Cycle(ctx, infos)
}

func (l *scanLanes) Balance(ctx context.Context, wantDonors bool) (simd.PhaseInfo, error) {
	l.c.phases++
	l.c.phased = true
	return l.Lanes.Balance(ctx, wantDonors)
}

// TestHeldAfterInstalls: a machine's Lanes.Held is the size histogram of its
// stacks right after a read through Machine.Arena, a TransferLocal and a
// RestoreSnapshot, as after a cycle: the stacks are the one record of their
// sizes, so no way of changing them leaves the machine unable to batch.
func TestHeldAfterInstalls(t *testing.T) {
	sch, err := simd.ParseScheme[synthetic.Node]("GP-DK")
	if err != nil {
		t.Fatal(err)
	}
	m, err := simd.NewMachine[synthetic.Node](synthetic.New(200000, 9), sch, simd.Options{P: 256, MaxCycles: 60})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunContext(context.Background()); !errors.Is(err, simd.ErrBudgetExceeded) {
		t.Fatalf("the run ended with %v, want it stopped mid-way by MaxCycles", err)
	}
	lanes, a := simd.MachineLanes(m), m.Arena()
	check := func(when string) {
		t.Helper()
		got := lanes.Held()
		if got == nil {
			t.Fatalf("%s: Held is nil", when)
		}
		want := make([]int32, stack.MaxBatch+1)
		for pe := 0; pe < a.P(); pe++ {
			want[min(a.Size(pe), stack.MaxBatch)]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Held %v, the stacks hold %v", when, got, want)
		}
		if want[0] == int32(a.P()) {
			t.Fatalf("%s: every stack is empty, the check shows nothing", when)
		}
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	m.StepCycle()
	check("after a cycle")
	m.Arena()
	check("after Machine.Arena")

	m.StepCycle()
	from, to := -1, -1
	for pe := 0; pe < a.P(); pe++ {
		switch {
		case from < 0 && a.Splittable(pe):
			from = pe
		case to < 0 && a.Empty(pe):
			to = pe
		}
	}
	if from < 0 || to < 0 {
		t.Fatalf("no donor (%d) or no idle PE (%d) to transfer between", from, to)
	}
	if n, err := m.TransferLocal(from, to); err != nil || n == 0 {
		t.Fatalf("TransferLocal(%d, %d) moved %d nodes: %v", from, to, n, err)
	}
	check("after TransferLocal")

	m.StepCycle()
	if err := m.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	check("after RestoreSnapshot")
}
