package steal

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"simdtree/internal/checkpoint"
	"simdtree/internal/match"
	"simdtree/internal/metrics"
	"simdtree/internal/simd"
	"simdtree/internal/topology"
	"simdtree/internal/trace"
)

// Shard is the driver's view of one hosted shard: the Host
// operations lifted over a transport.  Every call is a cycle-boundary
// operation; the driver is the only caller and never issues two calls to
// the same shard concurrently.
type Shard interface {
	Range() (lo, hi int)
	Step(ctx context.Context) (simd.CycleInfo, error)
	Flags(ctx context.Context) (busy, idle []bool, err error)
	Transfer(ctx context.Context, from, to int) (int, error)
	Split(ctx context.Context, id uint64, from, to int) ([]byte, int, error)
	Absorb(ctx context.Context, frame []byte) (int, error)
	Export(ctx context.Context) (stacks [][]byte, domainState []byte, err error)
	Merge(ctx context.Context, states [][]byte) ([]byte, error)
	Status(ctx context.Context) (allEmpty, anyDonor bool, err error)
}

// LocalShard adapts an in-process Host to the Shard interface; the
// context is ignored because nothing blocks.
type LocalShard struct{ H Host }

func (s LocalShard) Range() (int, int) { return s.H.Range() }
func (s LocalShard) Step(context.Context) (simd.CycleInfo, error) {
	return s.H.Step(), nil
}
func (s LocalShard) Flags(context.Context) ([]bool, []bool, error) {
	busy, idle := s.H.Flags()
	return busy, idle, nil
}
func (s LocalShard) Transfer(_ context.Context, from, to int) (int, error) {
	return s.H.Transfer(from, to)
}
func (s LocalShard) Split(_ context.Context, id uint64, from, to int) ([]byte, int, error) {
	return s.H.Split(id, from, to)
}
func (s LocalShard) Absorb(_ context.Context, frame []byte) (int, error) {
	return s.H.Absorb(frame)
}
func (s LocalShard) Export(context.Context) ([][]byte, []byte, error) {
	return s.H.Export()
}
func (s LocalShard) Merge(_ context.Context, states [][]byte) ([]byte, error) {
	return s.H.Merge(states)
}
func (s LocalShard) Status(context.Context) (bool, bool, error) {
	allEmpty, anyDonor := s.H.Status()
	return allEmpty, anyDonor, nil
}

// Config parameterises a distributed run.  The schedule inputs (scheme,
// costs, topology, budgets) must be the ones the original single-node job
// ran with, or the schedules diverge.
type Config struct {
	// Key is the job's cache key, stamped into every frame.
	Key string
	// Meta is the checkpoint meta of the donated job; assembled
	// checkpoints reuse it verbatim, which keeps them byte-compatible
	// with single-node ones.
	Meta checkpoint.Meta
	// Scheme is the codec-erased scheme (simd.ParseSchemeParts).
	Scheme simd.SchemeParts
	// Costs is the virtual cost model; zero fields default like the
	// engine's.
	Costs simd.Costs
	// Topology is the interconnection network; nil means the CM-2.
	Topology topology.Network
	// P is the machine size; the shards must tile [0, P).
	P int
	// InitThreshold is simd.Options.InitThreshold.
	InitThreshold float64
	// StopAtFirstGoal is simd.Options.StopAtFirstGoal.
	StopAtFirstGoal bool
	// MaxCycles is simd.Options.MaxCycles.
	MaxCycles int
	// CheckpointEvery assembles and emits a cluster-wide checkpoint every
	// N completed cycles, and once more when the run is cancelled; 0
	// disables both.
	CheckpointEvery int
	// OnCheckpoint receives each assembled, encoded checkpoint; an error
	// aborts the run.  The cluster ships it to the home node's spool so
	// the sharded job survives a restart.
	OnCheckpoint func(ctx context.Context, encoded []byte) error
	// Progress, when non-nil, fires every ProgressEvery cycles with the
	// schedule's record and each shard's share of its Active, in shard
	// order.  shardActive is valid only during the call.
	Progress func(pi simd.ProgressInfo, shardActive []int)
	// ProgressEvery is the Progress cadence; 0 means the engine default.
	ProgressEvery int
}

// Result is the outcome of a distributed run: the same Stats and trace a
// single machine would have produced, plus steal-specific counters.
type Result struct {
	Stats metrics.Stats
	Trace *trace.Trace
	// Donations counts the cross-shard frames shipped.
	Donations int
	// LocalTransfers counts the transfers that stayed within one shard.
	LocalTransfers int
}

// Driver is the simd.Lanes whose PEs are remote: it runs the engine's own
// simd.Schedule — ledger seeded from the donated checkpoint — over shards,
// stepping every shard one cycle per iteration and performing
// load-balancing phases by assembling global busy/idle flags, matching them
// exactly as a single machine would, and executing each matched pair as a
// local transfer or a cross-node donation frame.
type Driver struct {
	cfg    Config
	shards []Shard
	// shardOf maps a global PE index to its shard's index.
	shardOf []int

	sched *simd.Schedule
	mtchr match.Matcher

	// seq is the next donation id; donations are totally ordered by it.
	seq uint64

	donations      int
	localTransfers int

	// Reusable scratch for the per-cycle fan-out and the per-phase global
	// flag assembly.
	infos       []simd.CycleInfo
	stepErrs    []error
	busy, idle  []bool
	shardActive []int
}

// NewDriver validates the shard tiling and seeds the schedule ledger from
// the donated checkpoint.  The snapshot's stacks are not used here — the
// caller installed them into the shards — only its ledger fields.
func NewDriver(cfg Config, snap *checkpoint.RawSnapshot, shards []Shard) (*Driver, error) {
	if snap == nil {
		return nil, errors.New("steal: nil snapshot")
	}
	if cfg.P <= 0 {
		return nil, fmt.Errorf("steal: invalid processor count %d", cfg.P)
	}
	if len(snap.Stacks) != cfg.P {
		return nil, fmt.Errorf("steal: snapshot has %d stacks, config has P=%d", len(snap.Stacks), cfg.P)
	}
	if snap.Stats.P != cfg.P {
		return nil, fmt.Errorf("steal: snapshot stats are for P=%d, config has P=%d", snap.Stats.P, cfg.P)
	}
	if cfg.Scheme.Trigger == nil || cfg.Scheme.Matcher == nil {
		return nil, errors.New("steal: scheme is missing a trigger or matcher")
	}
	if len(shards) == 0 {
		return nil, errors.New("steal: no shards")
	}
	shardOf := make([]int, cfg.P)
	for pe := range shardOf {
		shardOf[pe] = -1
	}
	for i, sh := range shards {
		lo, hi := sh.Range()
		if lo < 0 || hi > cfg.P || lo >= hi {
			return nil, fmt.Errorf("steal: shard %d range [%d, %d) invalid for P=%d", i, lo, hi, cfg.P)
		}
		for pe := lo; pe < hi; pe++ {
			if shardOf[pe] != -1 {
				return nil, fmt.Errorf("steal: PE %d covered by shards %d and %d", pe, shardOf[pe], i)
			}
			shardOf[pe] = i
		}
	}
	for pe, s := range shardOf {
		if s == -1 {
			return nil, fmt.Errorf("steal: PE %d not covered by any shard", pe)
		}
	}

	d := &Driver{
		cfg:     cfg,
		shards:  shards,
		shardOf: shardOf,
		mtchr:   cfg.Scheme.Matcher,

		infos:       make([]simd.CycleInfo, len(shards)),
		stepErrs:    make([]error, len(shards)),
		busy:        make([]bool, cfg.P),
		idle:        make([]bool, cfg.P),
		shardActive: make([]int, len(shards)),
	}
	opts := simd.Options{
		P:               cfg.P,
		Topology:        cfg.Topology,
		Costs:           cfg.Costs,
		InitThreshold:   cfg.InitThreshold,
		StopAtFirstGoal: cfg.StopAtFirstGoal,
		MaxCycles:       cfg.MaxCycles,
		CheckpointEvery: cfg.CheckpointEvery,
		ProgressEvery:   cfg.ProgressEvery,
		Trace:           snap.Trace,
	}
	if cfg.Progress != nil {
		opts.Progress = func(pi simd.ProgressInfo) { cfg.Progress(pi, d.shardActive) }
	}
	d.sched = simd.NewSchedule(opts, cfg.Scheme.Trigger, cfg.Scheme.WantInit)
	d.sched.Ledger = snap.Ledger
	d.mtchr.Reset()
	if gp, ok := d.mtchr.(*match.GP); ok {
		gp.SetPointer(snap.MatcherPointer)
	}
	return d, nil
}

// Run advances the distributed schedule to completion (or cancellation,
// budget exhaustion, shard failure, or a checkpoint-sink error) and
// returns the cumulative result.  It is simd.Schedule.Run over the shards:
// cancellation lands only at cycle boundaries, never inside a shard call,
// the schedule assembles the stop-time checkpoint of the exact prefix when
// CheckpointEvery is set, and the Stats of a completed run are
// byte-identical to the single-machine run of the same job.
func (d *Driver) Run(ctx context.Context) (Result, error) {
	runErr := d.sched.Run(ctx, lanes{d})
	return Result{
		Stats:          d.sched.Stats,
		Trace:          d.sched.Trace,
		Donations:      d.donations,
		LocalTransfers: d.localTransfers,
	}, runErr
}

// each runs fn once per shard, concurrently, and waits for all of them: the
// fan-out of every call that goes to all shards at a cycle boundary.  fn
// writes only its own shard's slot of whatever it fills.
func (d *Driver) each(fn func(i int, sh Shard)) {
	var wg sync.WaitGroup
	for i, sh := range d.shards {
		wg.Add(1)
		go func(i int, sh Shard) {
			defer wg.Done()
			fn(i, sh)
		}(i, sh)
	}
	wg.Wait()
}

// lanes is the driver's simd.Lanes face, kept off its exported surface.
type lanes struct{ d *Driver }

// Status queries every shard before the first driven cycle.
func (l lanes) Status(ctx context.Context) (bool, error) {
	allEmpty := true
	for i, sh := range l.d.shards {
		empty, _, err := sh.Status(ctx)
		if err != nil {
			return false, fmt.Errorf("steal: shard %d status: %w", i, err)
		}
		allEmpty = allEmpty && empty
	}
	return allEmpty, nil
}

// Held is nil: the shards do not report their stack sizes, so the loop
// steps them one cycle a call.
func (lanes) Held() []int32 { return nil }

// Cycle steps every shard len(infos) times, one cycle at a time.
func (l lanes) Cycle(ctx context.Context, infos []simd.CycleInfo) error {
	for j := range infos {
		if err := l.step(ctx, &infos[j]); err != nil || infos[j].Fault != nil {
			return err
		}
	}
	return nil
}

// step steps every shard one cycle concurrently and reduces the results in
// shard order.
func (l lanes) step(ctx context.Context, sum *simd.CycleInfo) error {
	d := l.d
	d.each(func(i int, sh Shard) { d.infos[i], d.stepErrs[i] = sh.Step(ctx) })

	*sum = simd.CycleInfo{AllEmpty: true}
	for i, info := range d.infos {
		if err := d.stepErrs[i]; err != nil {
			return fmt.Errorf("steal: shard %d step: %w", i, err)
		}
		sum.Active += info.Active
		sum.Goals += info.Goals
		sum.Peak = max(sum.Peak, info.Peak)
		sum.AllEmpty = sum.AllEmpty && info.AllEmpty
		sum.AnyDonor = sum.AnyDonor || info.AnyDonor
		if sum.Fault == nil {
			sum.Fault = info.Fault
		}
		d.shardActive[i] = info.Active
	}
	return nil
}

// EndCycle is the spill sweep; shard machines run unbounded.
func (lanes) EndCycle() error { return nil }

// gatherFlags assembles the global busy/idle flags from every shard.
func (d *Driver) gatherFlags(ctx context.Context) ([]bool, []bool, error) {
	n := len(d.shards)
	busy, idle, errs := make([][]bool, n), make([][]bool, n), make([]error, n)
	d.each(func(i int, sh Shard) { busy[i], idle[i], errs[i] = sh.Flags(ctx) })
	for i, sh := range d.shards {
		lo, hi := sh.Range()
		if errs[i] != nil {
			return nil, nil, fmt.Errorf("steal: shard %d flags: %w", i, errs[i])
		}
		if len(busy[i]) != hi-lo || len(idle[i]) != hi-lo {
			return nil, nil, fmt.Errorf("steal: shard %d returned %d/%d flags for a %d-PE range", i, len(busy[i]), len(idle[i]), hi-lo)
		}
		copy(d.busy[lo:hi], busy[i])
		copy(d.idle[lo:hi], idle[i])
	}
	return d.busy, d.idle, nil
}

// Balance is one load-balancing phase over shards: MatchBalancer.Balance's
// round loop with the matcher run on globally assembled flags and each
// matched pair executed as a local transfer or a cross-node donation.  A
// transfer can revive donor eligibility or hand the last splittable stack
// elsewhere, but never empties a non-empty machine; the loop re-reads both
// flags after the next cycle.
func (l lanes) Balance(ctx context.Context, wantDonors bool) (simd.PhaseInfo, error) {
	d := l.d
	var ph simd.PhaseInfo
	for {
		busy, idle, err := d.gatherFlags(ctx)
		if err != nil {
			return ph, err
		}
		pairs := d.mtchr.Match(busy, idle)
		if len(pairs) == 0 {
			if ph.Rounds == 0 {
				ph.Rounds = 1 // the phase still pays its setup scans
			}
			return ph, nil
		}
		ph.Rounds++
		for _, p := range pairs {
			moved, err := d.transferPair(ctx, p.From, p.To)
			if err != nil {
				return ph, err
			}
			if moved > 0 {
				ph.Transfers++
				ph.MaxTransfer = max(ph.MaxTransfer, moved)
				if wantDonors {
					ph.Donors = append(ph.Donors, p.From)
				}
			}
		}
		if !d.cfg.Scheme.Multi {
			return ph, nil
		}
	}
}

// transferPair executes one matched donor->receiver pair: shard-local
// pairs delegate to the shard's Transfer, cross-shard pairs ship a frame.
func (d *Driver) transferPair(ctx context.Context, from, to int) (int, error) {
	si, ri := d.shardOf[from], d.shardOf[to]
	if si == ri {
		moved, err := d.shards[si].Transfer(ctx, from, to)
		if err != nil {
			return 0, fmt.Errorf("steal: shard %d transfer %d->%d: %w", si, from, to, err)
		}
		if moved > 0 {
			d.localTransfers++
		}
		return moved, nil
	}
	id := d.seq
	d.seq++
	payload, moved, err := d.shards[si].Split(ctx, id, from, to)
	if err != nil {
		return 0, fmt.Errorf("steal: shard %d split PE %d: %w", si, from, err)
	}
	if moved == 0 {
		return 0, nil
	}
	f := &Frame{
		Key:      d.cfg.Key,
		Codec:    d.cfg.Meta.Codec,
		Donation: id,
		Cycle:    d.sched.Stats.Cycles,
		From:     from,
		To:       to,
		Stack:    payload,
	}
	b, err := EncodeFrame(f)
	if err != nil {
		return 0, err
	}
	got, err := d.shards[ri].Absorb(ctx, b)
	if err != nil {
		return 0, fmt.Errorf("steal: shard %d absorb donation %d: %w", ri, id, err)
	}
	if got != moved {
		return 0, fmt.Errorf("steal: donation %d split %d nodes but absorbed %d", id, moved, got)
	}
	d.donations++
	return moved, nil
}

// Checkpoint assembles the cluster-wide snapshot and hands the encoded
// checkpoint to the sink.
func (l lanes) Checkpoint(ctx context.Context) error {
	if l.d.cfg.OnCheckpoint == nil {
		return nil
	}
	snap, err := l.d.Assemble(ctx)
	if err != nil {
		return err
	}
	b, err := checkpoint.EncodeRaw(l.d.cfg.Meta, snap)
	if err != nil {
		return err
	}
	return l.d.cfg.OnCheckpoint(ctx, b)
}

// Assemble exports every shard and builds the cluster-wide RawSnapshot for
// the current cycle boundary — byte-identical to the Snapshot a single
// machine at the same prefix would encode.  Shard domain states are merged
// through shard 0 (a min-merge for the IDA* bound accumulator), which
// reproduces the single shared accumulator's value.
func (d *Driver) Assemble(ctx context.Context) (*checkpoint.RawSnapshot, error) {
	n := len(d.shards)
	exported, domains, errs := make([][][]byte, n), make([][]byte, n), make([]error, n)
	d.each(func(i int, sh Shard) { exported[i], domains[i], errs[i] = sh.Export(ctx) })

	stacks := make([][]byte, d.cfg.P)
	var states [][]byte
	for i, sh := range d.shards {
		if errs[i] != nil {
			return nil, fmt.Errorf("steal: shard %d export: %w", i, errs[i])
		}
		lo, hi := sh.Range()
		if len(exported[i]) != hi-lo {
			return nil, fmt.Errorf("steal: shard %d exported %d stacks for a %d-PE range", i, len(exported[i]), hi-lo)
		}
		copy(stacks[lo:hi], exported[i])
		if domains[i] != nil {
			states = append(states, domains[i])
		}
	}
	var domain []byte
	switch {
	case len(states) == 0:
		// Stateless domain.
	case len(states) != len(d.shards):
		return nil, fmt.Errorf("steal: %d of %d shards exported domain state", len(states), len(d.shards))
	case len(states) == 1:
		domain = states[0]
	default:
		merged, err := d.shards[0].Merge(ctx, states[1:])
		if err != nil {
			return nil, fmt.Errorf("steal: shard 0 merge: %w", err)
		}
		domain = merged
	}

	snap := &checkpoint.RawSnapshot{
		Cycle:          d.sched.Stats.Cycles,
		Stacks:         stacks,
		MatcherPointer: -1,
		Ledger:         d.sched.Ledger,
		DomainState:    domain,
		Trace:          d.sched.Trace.Clone(),
	}
	if gp, ok := d.mtchr.(*match.GP); ok {
		snap.MatcherPointer = gp.Pointer()
	}
	snap.Stats.Cancelled = false
	return snap, nil
}
