package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"simdtree/internal/checkpoint"
	"simdtree/internal/match"
	"simdtree/internal/metrics"
	"simdtree/internal/scan"
	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/stack"
	"simdtree/internal/steal"
	"simdtree/internal/synthetic"
	"simdtree/internal/trigger"
	"simdtree/internal/wire"
)

// The traced pass measures every engine layer from outside: it re-runs the
// op through steal.NewDriver over in-process shards, with the shard, the
// matcher and the trigger wrapped in the timing decorators below, and (for
// a memory-bounded shape) runs the op directly with the spill manager
// wrapped the same way.  Nothing inside the engine is instrumented.

// tally is the running total of one kind of call.
type tally struct {
	d time.Duration
	n int64
}

func (t tally) s() float64 { return seconds(t.d) }

func (t *tally) add(o tally) {
	t.d += o.d
	t.n += o.n
}

// callTrace is where the decorators of one driver record.  The driver
// never calls one shard concurrently and calls the matcher and trigger
// from its own goroutine, so a callTrace per shard needs no lock.
type callTrace struct {
	log    *spanLog // nil: totals only
	parent int      // span id of the Driver.Run the calls belong to
}

func (c *callTrace) observe(t *tally, name string, start time.Time) {
	end := time.Now()
	t.d += end.Sub(start)
	t.n++
	if c.log != nil {
		c.log.call(name, c.parent, start, end)
	}
}

// timedShard decorates a steal.Shard.
type timedShard struct {
	callTrace
	inner steal.Shard

	step, flags, transfer, split, absorb, status tally

	expanded   int64 // sum of CycleInfo.Active: nodes expanded under Step
	transfers  int64 // Transfer calls that moved something
	nodesMoved int64
	frames     int64
	frameBytes int64
}

func (s *timedShard) Range() (int, int) { return s.inner.Range() }

func (s *timedShard) Step(ctx context.Context) (simd.CycleInfo, error) {
	start := time.Now()
	info, err := s.inner.Step(ctx)
	s.observe(&s.step, "simd.step", start)
	s.expanded += int64(info.Active)
	return info, err
}

func (s *timedShard) Flags(ctx context.Context) ([]bool, []bool, error) {
	start := time.Now()
	busy, idle, err := s.inner.Flags(ctx)
	s.observe(&s.flags, "simd.flags", start)
	return busy, idle, err
}

func (s *timedShard) Transfer(ctx context.Context, from, to int) (int, error) {
	start := time.Now()
	moved, err := s.inner.Transfer(ctx, from, to)
	s.observe(&s.transfer, "stack.transfer", start)
	if moved > 0 {
		s.transfers++
		s.nodesMoved += int64(moved)
	}
	return moved, err
}

func (s *timedShard) Split(ctx context.Context, id uint64, from, to int) ([]byte, int, error) {
	start := time.Now()
	b, n, err := s.inner.Split(ctx, id, from, to)
	s.observe(&s.split, "steal.split", start)
	return b, n, err
}

func (s *timedShard) Absorb(ctx context.Context, frame []byte) (int, error) {
	start := time.Now()
	n, err := s.inner.Absorb(ctx, frame)
	s.observe(&s.absorb, "steal.absorb", start)
	s.frames++
	s.frameBytes += int64(len(frame))
	return n, err
}

func (s *timedShard) Export(ctx context.Context) ([][]byte, []byte, error) {
	return s.inner.Export(ctx)
}

func (s *timedShard) Merge(ctx context.Context, states [][]byte) ([]byte, error) {
	return s.inner.Merge(ctx, states)
}

func (s *timedShard) Status(ctx context.Context) (bool, bool, error) {
	start := time.Now()
	e, d, err := s.inner.Status(ctx)
	s.observe(&s.status, "simd.status", start)
	return e, d, err
}

// timedMatcher decorates a match.Matcher.
type timedMatcher struct {
	*callTrace
	inner match.Matcher

	match       tally
	pairs       int64
	idleOffered int64
}

func (m *timedMatcher) Name() string { return m.inner.Name() }
func (m *timedMatcher) Reset()       { m.inner.Reset() }

func (m *timedMatcher) Match(busy, idle []bool) []scan.Pair {
	start := time.Now()
	pairs := m.inner.Match(busy, idle)
	m.observe(&m.match, "match.match", start)
	m.pairs += int64(len(pairs))
	for _, f := range idle {
		if f {
			m.idleOffered++
		}
	}
	return pairs
}

// timedTrigger decorates a trigger.Trigger.
type timedTrigger struct {
	*callTrace
	inner trigger.Trigger

	eval  tally
	fires int64
}

func (t *timedTrigger) Name() string { return t.inner.Name() }
func (t *timedTrigger) Reset()       { t.inner.Reset() }

func (t *timedTrigger) ShouldBalance(s trigger.State) bool {
	start := time.Now()
	fire := t.inner.ShouldBalance(s)
	t.observe(&t.eval, "trigger.eval", start)
	if fire {
		t.fires++
	}
	return fire
}

// timedSpiller decorates the residency manager of a memory-bounded op.
type timedSpiller struct {
	callTrace
	inner simd.Spiller[synthetic.Node]

	barrier, sweep, faultAll tally
}

func (s *timedSpiller) Barrier(a *stack.Arena[synthetic.Node]) error {
	start := time.Now()
	err := s.inner.Barrier(a)
	s.observe(&s.barrier, "spill.barrier", start)
	return err
}

func (s *timedSpiller) Sweep(a *stack.Arena[synthetic.Node]) error {
	start := time.Now()
	err := s.inner.Sweep(a)
	s.observe(&s.sweep, "spill.sweep", start)
	return err
}

func (s *timedSpiller) FaultAll(a *stack.Arena[synthetic.Node], pe int) error {
	start := time.Now()
	err := s.inner.FaultAll(a, pe)
	s.observe(&s.faultAll, "spill.faultall", start)
	return err
}

func (s *timedSpiller) Reset() error { return s.inner.Reset() }

// countingDomain counts the nodes the engine asks the domain to expand: a
// count taken at the search boundary, independent of Stats.W.  Traced
// shards run one worker, so a plain counter suffices.
type countingDomain struct {
	inner   search.Domain[synthetic.Node]
	expands int64
}

func (d *countingDomain) Root() synthetic.Node       { return d.inner.Root() }
func (d *countingDomain) Goal(n synthetic.Node) bool { return d.inner.Goal(n) }
func (d *countingDomain) Expand(n synthetic.Node, buf []synthetic.Node) []synthetic.Node {
	d.expands++
	return d.inner.Expand(n, buf)
}

// driverOp is the outcome of one op run through the steal driver.
type driverOp struct {
	stats      metrics.Stats
	wall       time.Duration
	newMachine time.Duration
	run        time.Duration // Driver.Run
	shards     []*timedShard
	matcher    *timedMatcher
	trigger    *timedTrigger
	expands    int64
}

// children is the time Driver.Run spent inside the layers it calls.
func (o *driverOp) children() time.Duration {
	d := o.matcher.match.d + o.trigger.eval.d
	for _, s := range o.shards {
		d += s.step.d + s.flags.d + s.transfer.d + s.split.d + s.absorb.d + s.status.d
	}
	return d
}

// driveOp runs the shape's op over nShards in-process shards under the
// steal driver.  The shards are seeded as TestDriverByteIdentity seeds
// them: a machine is stopped after cycle 1, snapshotted, the snapshot
// encoded and decoded raw, and its stacks installed into shard hosts.
func (s engineShape) driveOp(ctx context.Context, treeSeed uint64, nShards int, log *spanLog, op int) (*driverOp, error) {
	start := time.Now()
	opSpan := 0
	if log != nil {
		opSpan = log.beginOp(op, "op", start)
	}
	var d search.Domain[synthetic.Node] = synthetic.New(s.W, treeSeed)
	var counter *countingDomain
	if nShards == 1 {
		// Shards step concurrently, so only a single shard may share a
		// counting domain.
		counter = &countingDomain{inner: d}
		d = counter
	}
	codec := wire.SyntheticCodec{}
	sch, err := simd.ParseScheme[synthetic.Node](s.Scheme)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	m, err := simd.NewMachine[synthetic.Node](d, sch, simd.Options{P: s.P, MaxCycles: 1})
	if err != nil {
		return nil, err
	}
	out := &driverOp{newMachine: time.Since(t0)}
	if log != nil {
		log.coarse("simd.newmachine", t0, t0.Add(out.newMachine))
	}
	if _, err := m.RunContext(ctx); err != nil && !errors.Is(err, simd.ErrBudgetExceeded) {
		return nil, err
	}
	snap, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	enc, err := checkpoint.Encode[synthetic.Node](codec, checkpoint.Meta{Domain: "synthetic", Scheme: s.Scheme}, snap)
	if err != nil {
		return nil, err
	}
	meta, raw, err := checkpoint.DecodeRaw(enc)
	if err != nil {
		return nil, err
	}

	parts, err := simd.ParseSchemeParts(s.Scheme)
	if err != nil {
		return nil, err
	}
	shards := make([]steal.Shard, 0, nShards)
	for i := 0; i < nShards; i++ {
		lo, hi := i*s.P/nShards, (i+1)*s.P/nShards
		hd := d
		if i > 0 {
			hd = synthetic.New(s.W, treeSeed)
		}
		h, err := steal.NewHost[synthetic.Node](hd, codec, s.Scheme, simd.Options{P: s.P}, lo, hi, raw.Stacks[lo:hi], raw.DomainState)
		if err != nil {
			return nil, err
		}
		ts := &timedShard{inner: steal.LocalShard{H: h}}
		out.shards = append(out.shards, ts)
		shards = append(shards, ts)
	}
	// Matcher and trigger record through the first shard's trace: all
	// three are driven from the driver's goroutine, never concurrently.
	ct := &out.shards[0].callTrace
	if nShards == 1 {
		ct.log = log
	}
	inner := parts.Matcher
	out.matcher = &timedMatcher{callTrace: ct, inner: inner}
	out.trigger = &timedTrigger{callTrace: ct, inner: parts.Trigger}
	parts.Matcher, parts.Trigger = out.matcher, out.trigger

	drv, err := steal.NewDriver(steal.Config{Key: "simdmark", Meta: meta, Scheme: parts, P: s.P}, raw, shards)
	if err != nil {
		return nil, err
	}
	// NewDriver restores the GP pointer only on a bare *match.GP; the
	// decorator hides it, so restore it here, after NewDriver's Reset.
	if gp, ok := inner.(*match.GP); ok {
		gp.SetPointer(raw.MatcherPointer)
	}

	runStart := time.Now()
	if log != nil {
		ct.parent = log.coarse("steal.driver.run", runStart, runStart)
	}
	res, err := drv.Run(ctx)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	out.run = end.Sub(runStart)
	out.wall = end.Sub(start)
	out.stats = res.Stats
	if counter != nil {
		out.expands = counter.expands
	}
	if log != nil {
		log.spans[ct.parent-1].EndNS = end.Sub(log.t0).Nanoseconds()
		log.endOp(opSpan, end)
	}
	return out, nil
}

// checkpointCost times a mid-run snapshot and its codec.
type checkpointCost struct {
	snapshot, encode, decode time.Duration
	bytes                    int
}

func (s engineShape) checkpointMidRun(ctx context.Context, treeSeed uint64, cycles int, log *spanLog) (checkpointCost, error) {
	var c checkpointCost
	d := synthetic.New(s.W, treeSeed)
	codec := wire.SyntheticCodec{}
	sch, err := simd.ParseScheme[synthetic.Node](s.Scheme)
	if err != nil {
		return c, err
	}
	half := cycles / 2
	if half < 1 {
		half = 1
	}
	m, err := simd.NewMachine[synthetic.Node](d, sch, simd.Options{P: s.P, MaxCycles: half})
	if err != nil {
		return c, err
	}
	if _, err := m.RunContext(ctx); err != nil && !errors.Is(err, simd.ErrBudgetExceeded) {
		return c, err
	}
	t0 := time.Now()
	snap, err := m.Snapshot()
	t1 := time.Now()
	if err != nil {
		return c, err
	}
	enc, err := checkpoint.Encode[synthetic.Node](codec, checkpoint.Meta{Domain: "synthetic", Scheme: s.Scheme}, snap)
	t2 := time.Now()
	if err != nil {
		return c, err
	}
	_, _, err = checkpoint.DecodeRaw(enc)
	t3 := time.Now()
	if err != nil {
		return c, err
	}
	log.coarse("checkpoint.snapshot", t0, t1)
	log.coarse("checkpoint.encode", t1, t2)
	log.coarse("checkpoint.decode", t2, t3)
	return checkpointCost{snapshot: t1.Sub(t0), encode: t2.Sub(t1), decode: t3.Sub(t2), bytes: len(enc)}, nil
}

// traceEngine is the traced pass of an engine workload.
func traceEngine(ctx context.Context, root string, stream uint64, wd *workloadDef, cfg runConfig) (*result, error) {
	shape := wd.engine.scaled(cfg.Scale)
	allProcs := runtime.GOMAXPROCS(0)
	defer setProcs(shape.Procs)()
	chk, err := newOpChecker(wd.Name, shape, cfg)
	if err != nil {
		return nil, err
	}
	run, err := shape.setUp(ctx, root, cfg.Scale, stream, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer run.close()
	seed := run.seeds[0]
	reps := 3
	if cfg.Scale == "short" {
		reps = 1
	}
	attempted := 0
	log := newSpanLog()

	// timedOps runs n untraced ops of a variant of the shape and returns
	// the median op time; full selects the full output check (a variant
	// without the spill budget has no evictions to compare).
	timedOps := func(v engineShape, n int, full bool) (float64, error) {
		times := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			r, err := v.op(ctx, seed, run.spillDir, nil)
			if err != nil {
				return 0, err
			}
			attempted++
			if full {
				chk.check(0, r)
			} else {
				chk.checkStats(0, r.stats)
			}
			times = append(times, seconds(r.wall))
		}
		return median(times), nil
	}

	// Untraced reference ops: the base of trace.overhead_share, of the
	// stats comparison, and of the runtime.* allocation figures.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	refS, err := timedOps(shape, reps, true)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	ref := chk.first[0]

	// The same op at the other worker count.  A workload that runs its ops
	// on fewer Ps runs both sides of this pair on all of them: the pair
	// prices the pool's handoff between cores.
	sameS := refS
	other := shape
	other.Workers = 3 - shape.Workers
	pairProcs := setProcs(allProcs)
	if shape.Procs != 0 {
		if sameS, err = timedOps(shape, max(1, reps-1), true); err != nil {
			return nil, err
		}
	}
	otherS, err := timedOps(other, max(1, reps-1), true)
	pairProcs()
	if err != nil {
		return nil, err
	}
	s1, s2 := sameS, otherS
	if shape.Workers == 2 {
		s1, s2 = otherS, sameS
	}

	// Traced ops through the steal driver, one shard covering [0, P).
	var sum driverOp
	sum.shards = []*timedShard{{}}
	sum.matcher, sum.trigger = &timedMatcher{}, &timedTrigger{}
	for i := 0; i < reps; i++ {
		op, err := shape.driveOp(ctx, seed, 1, log, i+1)
		if err != nil {
			return nil, err
		}
		attempted++
		chk.checkStats(0, op.stats)
		if op.expands != shape.W {
			chk.fail("traced op asked the domain to expand %d nodes, W=%d", op.expands, shape.W)
		}
		sum.wall += op.wall
		sum.newMachine += op.newMachine
		sum.run += op.run
		sum.expands += op.expands
		sum.shards[0].add(op.shards[0])
		sum.matcher.add(op.matcher)
		sum.trigger.add(op.trigger)
	}
	sh := sum.shards[0]
	fr := float64(reps)
	tracedS := seconds(sum.wall) / fr

	res := newResult(wd.Name, true, 0, 0)
	res.set("simd.expand_s", sh.step.s()/fr, int(sh.step.n))
	res.set("simd.cycles", float64(sh.step.n)/fr, reps)
	res.set("simd.expand_ns_per_node", ratio(float64(sh.step.d.Nanoseconds()), float64(sh.expanded)), int(sh.expanded))
	res.set("simd.expand_share", ratio(sh.step.s(), seconds(sum.wall)), reps)
	res.set("simd.flags_s", sh.flags.s()/fr, int(sh.flags.n))
	res.set("simd.lb_phases", float64(sh.flags.n)/fr, reps)
	res.set("simd.lb_share", ratio(sh.flags.s()+sum.matcher.match.s()+sh.transfer.s(), seconds(sum.wall)), reps)
	res.set("simd.newmachine_s", seconds(sum.newMachine)/fr, reps)
	res.set("simd.workers_speedup", ratio(s1, s2), reps)
	res.set("simd.pool_ns_per_cycle", (s2-s1)*1e9/float64(ref.stats.Cycles), reps)
	res.set("search.expands", float64(sum.expands)/fr, reps)
	res.set("trigger.eval_s", sum.trigger.eval.s()/fr, int(sum.trigger.eval.n))
	res.set("trigger.evals", float64(sum.trigger.eval.n)/fr, reps)
	res.set("trigger.fire_share", ratio(float64(sum.trigger.fires), float64(sum.trigger.eval.n)), int(sum.trigger.eval.n))
	res.set("match.match_s", sum.matcher.match.s()/fr, int(sum.matcher.match.n))
	res.set("match.calls", float64(sum.matcher.match.n)/fr, reps)
	res.set("match.pairs", float64(sum.matcher.pairs)/fr, reps)
	res.set("match.pair_share", ratio(float64(sum.matcher.pairs), float64(sum.matcher.idleOffered)), int(sum.matcher.match.n))
	res.set("stack.transfer_s", sh.transfer.s()/fr, int(sh.transfer.n))
	res.set("stack.transfers", float64(sh.transfers)/fr, reps)
	res.set("stack.nodes_moved", float64(sh.nodesMoved)/fr, reps)
	res.set("stack.transfer_ns_per_pair", ratio(float64(sh.transfer.d.Nanoseconds()), float64(sh.transfer.n)), int(sh.transfer.n))
	res.set("steal.driver_self_s", seconds(sum.run-sum.children())/fr, reps)
	res.set("trace.overhead_share", (tracedS-refS)/refS, reps)

	// The serial baseline: plain search.DFS over the same tree.
	t0 := time.Now()
	dfs := search.DFS[synthetic.Node](synthetic.New(shape.W, seed))
	dfsS := seconds(time.Since(t0))
	log.coarse("search.dfs", t0, time.Now())
	if dfs.Expanded != shape.W {
		chk.fail("serial DFS expanded %d nodes, W=%d", dfs.Expanded, shape.W)
	}
	dfsRate := float64(dfs.Expanded) / dfsS
	res.set("search.dfs_nodes_per_s", dfsRate, 1)
	res.set("simd.overhead_x", dfsRate/(float64(shape.W)/refS), reps)

	ck, err := shape.checkpointMidRun(ctx, seed, ref.stats.Cycles, log)
	if err != nil {
		return nil, err
	}
	res.set("checkpoint.snapshot_s", seconds(ck.snapshot), 1)
	res.set("checkpoint.encode_s", seconds(ck.encode), 1)
	res.set("checkpoint.decode_s", seconds(ck.decode), 1)
	res.set("checkpoint.bytes", float64(ck.bytes), 1)

	nOps := float64(reps)
	res.set("runtime.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/nOps, reps)
	res.set("runtime.alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/nOps, reps)
	res.set("runtime.gc_pause_ms_per_op", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/nOps, reps)

	if wd.Name == "lb-storm" {
		// Two shards, so matched pairs that cross the middle ship as
		// frames: the only place split, absorb and the frame codec run.
		op, err := shape.driveOp(ctx, seed, 2, nil, 0)
		if err != nil {
			return nil, err
		}
		attempted++
		chk.checkStats(0, op.stats)
		var split, absorb tally
		var frames, frameBytes int64
		for _, s := range op.shards {
			split.add(s.split)
			absorb.add(s.absorb)
			frames += s.frames
			frameBytes += s.frameBytes
		}
		res.set("steal.split_s", split.s(), int(split.n))
		res.set("steal.absorb_s", absorb.s(), int(absorb.n))
		res.set("steal.frames", float64(frames), 1)
		res.set("steal.frame_bytes", float64(frameBytes), 1)
	}

	if shape.MemBudget > 0 {
		// The op run directly, with the spill manager timed from outside.
		var sp timedSpiller
		var wall time.Duration
		for i := 0; i < reps; i++ {
			start := time.Now()
			id := log.beginOp(reps+i+1, "op.spill", start)
			sp.log, sp.parent = log, id
			r, err := shape.op(ctx, seed, run.spillDir, func(in simd.Spiller[synthetic.Node]) simd.Spiller[synthetic.Node] {
				sp.inner = in
				return &sp
			})
			if err != nil {
				return nil, err
			}
			log.endOp(id, time.Now())
			attempted++
			chk.check(0, r)
			wall += r.wall
		}
		unbounded := shape
		unbounded.MemBudget = 0
		unbS, err := timedOps(unbounded, reps, false)
		if err != nil {
			return nil, err
		}
		inSpill := sp.barrier.s() + sp.sweep.s() + sp.faultAll.s()
		res.set("spill.barrier_s", sp.barrier.s()/fr, int(sp.barrier.n))
		res.set("spill.sweep_s", sp.sweep.s()/fr, int(sp.sweep.n))
		res.set("spill.faultall_s", sp.faultAll.s()/fr, int(sp.faultAll.n))
		res.set("spill.share", ratio(inSpill, seconds(wall)), reps)
		res.set("spill.evictions", float64(ref.spill.Evictions), 1)
		res.set("spill.faults", float64(ref.spill.Faults), 1)
		res.set("spill.bytes_written", float64(ref.spill.BytesWritten), 1)
		res.set("spill.bytes_read", float64(ref.spill.BytesRead), 1)
		res.set("spill.us_per_evict", ratio(sp.sweep.s()/fr*1e6, float64(ref.spill.Evictions)), int(ref.spill.Evictions))
		res.set("spill.slowdown_x", ratio(refS, unbS), reps)
		// On this shape the spill-decorated op is the traced op.
		res.set("trace.overhead_share", (seconds(wall)/fr-refS)/refS, reps)
	}

	path, err := log.write(root, cfg, wd.Name)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Correct = attempted, chk.failed, chk.failed == 0
	res.notes = append(res.notes, chk.checkMode(),
		"traced Stats must equal the untraced op's; a difference is a failed op",
		fmt.Sprintf("spans written to %s (%d call-level spans beyond the per-op quota dropped from the file, never from the totals)", path, log.Dropped))
	res.notes = append(res.notes, chk.why...)
	return res, nil
}

// checkStats is the output check of an op that ran without the shape's
// spill budget: its Stats must equal the reference op's.
func (c *opChecker) checkStats(t int, st metrics.Stats) {
	if st != c.first[t].stats {
		c.fail("tree %d: traced or variant stats %v differ from the untraced op's %v", t, st, c.first[t].stats)
	}
}

func (s *timedShard) add(o *timedShard) {
	s.step.add(o.step)
	s.flags.add(o.flags)
	s.transfer.add(o.transfer)
	s.split.add(o.split)
	s.absorb.add(o.absorb)
	s.status.add(o.status)
	s.expanded += o.expanded
	s.transfers += o.transfers
	s.nodesMoved += o.nodesMoved
	s.frames += o.frames
	s.frameBytes += o.frameBytes
}

func (m *timedMatcher) add(o *timedMatcher) {
	m.match.add(o.match)
	m.pairs += o.pairs
	m.idleOffered += o.idleOffered
}

func (t *timedTrigger) add(o *timedTrigger) {
	t.eval.add(o.eval)
	t.fires += o.fires
}
