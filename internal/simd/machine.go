// Package simd simulates the paper's machine model: P processing elements
// executing a parallel depth-first search in lock-step, alternating between
// a search phase (node-expansion cycles) and a load-balancing phase (idle
// processors matched to busy donors, which split their DFS stacks).  The
// simulator substitutes for the CM-2 of the paper's experiments: it
// reproduces the lock-step schedule exactly — every busy PE expands one
// node per cycle, the trigger is evaluated globally between cycles, phases
// are barrier-synchronised — and charges the paper's measured unit costs
// (Ucalc per cycle, tlb per phase) to a deterministic virtual clock, from
// which the Section 3.1 aggregates (Tcalc, Tidle, Tlb, efficiency) follow.
//
// The schedule, node counts and virtual times are bit-for-bit deterministic
// for a given (domain, scheme, options); the Workers option only shards the
// host-side simulation work — the expansion of each cycle, and the flag
// scans, matching enumerations and stack transfers of each load-balancing
// phase — across goroutines to speed up wall-clock simulation and never
// changes results: every parallel step either writes disjoint state or is
// reduced sequentially in shard order.
//
// One deliberate deviation from the paper's terminology: the paper calls a
// processor "busy" only when its stack is splittable (at least two nodes).
// Here the active count A used by triggers and idle-time accounting counts
// processors with any work at all (they do expand a node that cycle), while
// donor eligibility still requires a splittable stack.  The two coincide
// except for the rare single-node stacks, and the accounting identity
// P*Tpar = Tcalc + Tidle + Tlb requires the has-work notion.
package simd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/search"
	"simdtree/internal/stack"
	"simdtree/internal/topology"
	"simdtree/internal/trace"
	"simdtree/internal/trigger"
)

// Options configures a simulated run.  The zero value (plus a positive P)
// reproduces the paper's CM-2 setup.
type Options struct {
	// P is the number of processing elements; it must be positive.
	P int
	// Topology is the interconnection network; nil means the CM-2.
	Topology topology.Network
	// Costs is the virtual cost model; zero fields default to CM2Costs.
	Costs Costs
	// InitThreshold controls the initial distribution phase the paper
	// uses before dynamic triggering (Section 7): expansion cycles and
	// distribution phases alternate until this fraction of PEs has work.
	// 0 selects the paper's default (0.85 for dynamic triggers, none for
	// static); a negative value disables the phase outright.
	InitThreshold float64
	// StopAtFirstGoal stops the search once any PE finds a goal in a
	// cycle.  The default (false) searches exhaustively, matching the
	// paper's all-solutions runs that keep serial and parallel node
	// counts identical.
	StopAtFirstGoal bool
	// Workers shards each expansion cycle across this many goroutines;
	// values below 1 mean sequential execution.  Results are identical
	// for any worker count.
	Workers int
	// MaxCycles aborts runaway simulations; 0 means no limit.
	MaxCycles int
	// Trace, when non-nil, records per-cycle active counts and trigger
	// quantities (Figures 1 and 8).
	Trace *trace.Trace
	// Progress, when non-nil, is called every ProgressEvery expansion
	// cycles (default 1000) with a liveness snapshot — useful for the
	// multi-minute full-scale runs.  It runs on the simulation goroutine;
	// keep it cheap.
	Progress func(ProgressInfo)
	// ProgressEvery sets the Progress callback cadence in cycles.
	ProgressEvery int
	// CheckpointEvery invokes the checkpoint sink registered with
	// Machine.OnCheckpoint every N completed expansion cycles, at the
	// cycle boundary (the only point where the machine state is a
	// well-defined prefix of the schedule).  0 disables periodic
	// checkpoints; the sink can still be driven manually via Snapshot.
	CheckpointEvery int
	// MemBudget caps the resident stack memory, in bytes: when positive,
	// the spill manager registered with Machine.SetSpiller evicts the
	// coldest bottom-of-stack levels to disk at cycle boundaries and
	// faults them back on demand.  The schedule, stats, traces and
	// checkpoints are byte-identical with any budget, including none —
	// residency is invisible to the search order.  A positive budget with
	// no registered spiller is an error at run time; codec-aware entry
	// points (the facade search helpers, the server, the CLIs) wire a
	// manager automatically.
	MemBudget int64
}

// ProgressInfo is the snapshot handed to Options.Progress.
type ProgressInfo struct {
	Cycles   int           // expansion cycles completed
	Active   int           // processors busy in the latest cycle
	W        int64         // nodes expanded so far
	LBPhases int           // load-balancing phases so far
	Tpar     time.Duration // virtual time elapsed
}

// Machine is the mutable state of one simulated run.  NewMachine builds
// one; RunContext (the method) advances it to completion.  Between cycles
// — before RunContext starts, after it returns on cancellation, or inside
// an OnCheckpoint sink — the machine is quiescent and Snapshot /
// RestoreSnapshot may capture or replace its state.  The package-level Run
// and RunContext remain the one-call form for runs that never checkpoint.
type Machine[S any] struct {
	ctx   context.Context
	d     search.Domain[S]
	sch   Scheme[S]
	opts  Options
	topo  topology.Network
	costs Costs

	// arena holds every PE stack: one flat array of per-PE records (sizes,
	// offsets, top-level count), contiguous per-PE node buffers, and the
	// has-work and can-split bitsets the cycle loop reduces over.
	arena   *stack.Arena[S]
	workers int

	// shards are the fixed [lo, hi) PE ranges the worker goroutines cover,
	// computed once at construction rather than re-derived every cycle.
	// cycleRes and scratch are the matching per-shard result slots and
	// expansion-kernel scratch, reused every cycle so the hot path does
	// not allocate (each scratch is its own allocation: two shards never
	// write the same cache line); taskExpand is the pre-bound shard task.
	shards     []shardRange
	cycleRes   []stack.Expansion
	scratch    []*stack.ExpandScratch[S]
	taskExpand func(w int)

	// Worker pool: long-lived goroutines (started by RunContext, stopped
	// when it returns) that execute parTask once per shard between two
	// barriers, so per-cycle parallelism costs channel signals instead of
	// goroutine spawns.  parReady is nil while the pool is down.
	parReady []chan struct{}
	parWG    sync.WaitGroup
	parTask  func(w int)

	// lbCtx is the reusable load-balancing context, reset per phase.
	lbCtx *Context[S]

	stats metrics.Stats
	goals int64

	// initDone records that the Section 7 initial-distribution phase (if
	// the scheme wants one) has completed; snapshots carry it so a resumed
	// run re-enters the correct loop.
	initDone bool

	// ckpt is the sink registered with OnCheckpoint, driven every
	// Options.CheckpointEvery cycles.
	ckpt func(*Snapshot[S]) error

	// spiller is the residency manager registered with SetSpiller; nil
	// runs unbounded.  spillErr latches the first residency error raised
	// where none can be returned — a fault inside a balancing phase's
	// transfer path, ErrNotResident from a driven StepCycle; the run loop
	// surfaces it at the next boundary.
	spiller  Spiller[S]
	spillErr error

	// Search-phase accumulators, reset after every load-balancing phase.
	phaseCycles  int
	phaseElapsed time.Duration
	phaseWork    time.Duration
	phaseIdle    time.Duration
	estLB        time.Duration
}

// Run simulates the parallel search of d under scheme sch and returns the
// Section 3.1 statistics.  It is RunContext with a background context.
func Run[S any](d search.Domain[S], sch Scheme[S], opts Options) (metrics.Stats, error) {
	//lint:allow ctxflow deprecated context-free wrapper kept for API compatibility
	return RunContext[S](context.Background(), d, sch, opts)
}

// RunContext is Run with cooperative cancellation.  The context is checked
// only at cycle boundaries — between lock-step node-expansion cycles —
// never inside one, so cancellation can not perturb the schedule of the
// cycles that did complete: a run cancelled after k cycles is bit-for-bit
// the k-cycle prefix of the uncancelled run.  On cancellation it returns
// the partial Stats accumulated so far with Stats.Cancelled set, plus the
// context's cause (context.Canceled or context.DeadlineExceeded).
func RunContext[S any](ctx context.Context, d search.Domain[S], sch Scheme[S], opts Options) (metrics.Stats, error) {
	m, err := NewMachine[S](d, sch, opts)
	if err != nil {
		return metrics.Stats{}, err
	}
	return m.RunContext(ctx)
}

// ResumeContext restores snap into a fresh machine for (d, sch, opts) and
// runs it to completion.  The domain, scheme and options must be the ones
// the snapshotted run was started with; the resumed run then produces
// Stats and trace byte-identical to the uninterrupted run.  Snapshots
// taken during a parallel IDA* run carry iteration state and must go
// through RunIDAStarCheckpointed instead.
func ResumeContext[S any](ctx context.Context, d search.Domain[S], sch Scheme[S], opts Options, snap *Snapshot[S]) (metrics.Stats, error) {
	if snap != nil && snap.IDA != nil {
		return metrics.Stats{}, errors.New("simd: snapshot is from an IDA* run; resume it with RunIDAStarCheckpointed")
	}
	m, err := NewMachine[S](d, sch, opts)
	if err != nil {
		return metrics.Stats{}, err
	}
	if err := m.RestoreSnapshot(snap); err != nil {
		return metrics.Stats{}, err
	}
	return m.RunContext(ctx)
}

// NewMachine validates the configuration and builds a machine with the
// root node on processor 0's stack, ready to run.  The scheme's trigger
// and balancer are Reset, so schemes may be reused across machines.
func NewMachine[S any](d search.Domain[S], sch Scheme[S], opts Options) (*Machine[S], error) {
	if d == nil {
		return nil, errors.New("simd: nil domain")
	}
	if opts.P <= 0 {
		return nil, fmt.Errorf("simd: invalid processor count %d", opts.P)
	}
	if sch.Trigger == nil || sch.Balancer == nil {
		return nil, errors.New("simd: scheme is missing a trigger or balancer")
	}
	if sch.Splitter == nil {
		sch.Splitter = stack.BottomNode[S]{}
	}
	sch.Trigger.Reset()
	if r, ok := sch.Balancer.(interface{ Reset() }); ok {
		r.Reset()
	}

	m := &Machine[S]{
		d:     d,
		sch:   sch,
		opts:  opts,
		topo:  opts.Topology,
		costs: opts.Costs.normalize(),
	}
	if m.topo == nil {
		m.topo = topology.CM2{}
	}
	if m.opts.ProgressEvery <= 0 {
		m.opts.ProgressEvery = 1000
	}
	m.workers = opts.Workers
	if m.workers < 1 {
		m.workers = 1
	}
	if m.workers > opts.P {
		m.workers = opts.P
	}
	m.arena = stack.NewArena[S](opts.P)
	m.arena.PushLevel(0, []S{d.Root()})
	m.stats.P = opts.P
	m.estLB = m.costs.SingleRoundCost(m.topo, opts.P)

	m.shards = makeShards(opts.P, m.workers)
	m.workers = len(m.shards)
	m.cycleRes = make([]stack.Expansion, len(m.shards))
	m.scratch = make([]*stack.ExpandScratch[S], len(m.shards))
	for w := range m.scratch {
		m.scratch[w] = new(stack.ExpandScratch[S])
	}
	m.taskExpand = func(w int) {
		sh := m.shards[w]
		m.cycleRes[w] = m.expandRange(sh.lo, sh.hi, m.scratch[w])
	}
	m.lbCtx = &Context[S]{
		Arena:    m.arena,
		Splitter: m.sch.Splitter,
		Topo:     m.topo,
		workers:  m.workers,
	}
	if m.workers > 1 {
		m.lbCtx.runParallel = m.parallel
	}
	return m, nil
}

// shardRange is one worker's fixed [lo, hi) slice of the PE array.
type shardRange struct{ lo, hi int }

// makeShards divides p processing elements into at most workers contiguous
// chunks, dropping empty trailing chunks.  Chunks are rounded up to whole
// 64-PE bitset words so no two shards ever share a flag word: the parallel
// expansion updates each PE's has-work/can-split bits in place, and word
// ownership per shard keeps those read-modify-writes race-free.
func makeShards(p, workers int) []shardRange {
	chunk := (p + workers - 1) / workers
	chunk = (chunk + 63) &^ 63
	shards := make([]shardRange, 0, workers)
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > p {
			hi = p
		}
		if lo >= hi {
			break
		}
		shards = append(shards, shardRange{lo: lo, hi: hi})
	}
	return shards
}

// startPool launches the worker-pool goroutines; a no-op for sequential
// machines or when the pool is already up.
func (m *Machine[S]) startPool() {
	if m.workers <= 1 || m.parReady != nil {
		return
	}
	m.parReady = make([]chan struct{}, m.workers)
	for w := range m.parReady {
		ch := make(chan struct{}, 1)
		m.parReady[w] = ch
		go func(w int, ready chan struct{}) {
			for range ready {
				m.parTask(w)
				m.parWG.Done()
			}
		}(w, ch)
	}
}

// stopPool shuts the worker-pool goroutines down so a quiescent machine
// holds no background resources.
func (m *Machine[S]) stopPool() {
	for _, ch := range m.parReady {
		close(ch)
	}
	m.parReady = nil
}

// parallel runs task once per shard and waits for all of them.  The channel
// send publishes parTask to the pool goroutines and the WaitGroup publishes
// their writes back, so tasks may freely write their own shard's slots.
// Without a pool (sequential machine, or a call outside RunContext) the
// shards run in order on the calling goroutine — same results either way.
func (m *Machine[S]) parallel(task func(w int)) {
	if m.parReady == nil {
		for w := 0; w < m.workers; w++ {
			task(w)
		}
		return
	}
	m.parTask = task
	m.parWG.Add(len(m.parReady))
	for _, ch := range m.parReady {
		ch <- struct{}{}
	}
	m.parWG.Wait()
}

// OnCheckpoint registers fn as the machine's checkpoint sink.  The engine
// calls it synchronously at cycle boundaries, every Options.CheckpointEvery
// completed cycles, with a deep snapshot of the machine state; an error
// from fn aborts the run with that error.  A nil Options.CheckpointEvery
// (zero) leaves the sink dormant.
func (m *Machine[S]) OnCheckpoint(fn func(*Snapshot[S]) error) { m.ckpt = fn }

// RunContext advances the machine to completion (or cancellation, budget
// exhaustion, or a checkpoint-sink error) and returns the cumulative
// Section 3.1 statistics.  After a cancelled run the machine sits at a
// cycle boundary: Snapshot captures the exact prefix state, and calling
// RunContext again with a live context continues the schedule in place.
func (m *Machine[S]) RunContext(ctx context.Context) (metrics.Stats, error) {
	if ctx == nil {
		//lint:allow ctxflow nil-context guard preserving the context-free entry points
		ctx = context.Background()
	}
	m.ctx = ctx
	if m.opts.MemBudget > 0 && m.spiller == nil {
		return m.stats, errors.New("simd: Options.MemBudget set but no spill manager registered (SetSpiller)")
	}
	// A machine resumed after cancellation starts a fresh verdict.
	m.stats.Cancelled = false

	// Tcalc and Goals are filled in even when the run stops early
	// (cancellation, MaxCycles) so callers always see consistent partial
	// aggregates for the completed prefix of the schedule.
	m.startPool()
	err := m.run()
	m.stopPool()
	m.fillDerivedStats()
	return m.stats, err
}

// fillDerivedStats computes the aggregates that are functions of the
// accumulators, so both run exits and snapshots report consistent Stats.
func (m *Machine[S]) fillDerivedStats() {
	m.stats.Tcalc = time.Duration(m.stats.W) * m.costs.NodeExpansion
	m.stats.Goals = m.goals
}

// run executes the initial distribution followed by the main
// search/balance loop.
func (m *Machine[S]) run() error {
	if !m.initDone {
		initTh := m.opts.InitThreshold
		if initTh == 0 && m.sch.WantInit {
			initTh = 0.85
		}
		if initTh > 0 {
			if err := m.initialDistribution(initTh); err != nil {
				return err
			}
		}
		m.initDone = true
	}
	for {
		if m.done() {
			return nil
		}
		if err := m.checkBudget(); err != nil {
			return err
		}
		if err := m.checkCtx(); err != nil {
			return err
		}
		if err := m.maybeCheckpoint(); err != nil {
			return err
		}
		if err := m.spillBarrier(); err != nil {
			return err
		}
		active, lost := m.cycle()
		if err := m.notResident(lost); err != nil {
			return err
		}
		st := m.triggerState(active)
		m.recordSample(st)
		if m.opts.StopAtFirstGoal && m.goals > 0 {
			return nil
		}
		if m.sch.Trigger.ShouldBalance(st) && active < m.stats.P && m.anyDonor() {
			m.balance(false)
		}
		if err := m.spillSweep(); err != nil {
			return err
		}
	}
}

// initialDistribution alternates expansion cycles with distribution phases
// until the target fraction of PEs has work (Section 7).
func (m *Machine[S]) initialDistribution(threshold float64) error {
	if threshold > 1 {
		threshold = 1
	}
	target := int(math.Ceil(threshold * float64(m.stats.P)))
	for {
		if m.done() {
			return nil
		}
		if err := m.checkBudget(); err != nil {
			return err
		}
		if err := m.checkCtx(); err != nil {
			return err
		}
		if err := m.maybeCheckpoint(); err != nil {
			return err
		}
		if err := m.spillBarrier(); err != nil {
			return err
		}
		active, lost := m.cycle()
		m.stats.InitCycles++
		if err := m.notResident(lost); err != nil {
			return err
		}
		m.recordSample(m.triggerState(active))
		if m.opts.StopAtFirstGoal && m.goals > 0 {
			return nil
		}
		if active >= target {
			return nil
		}
		if active < m.stats.P && m.anyDonor() {
			m.balance(true)
		}
		if err := m.spillSweep(); err != nil {
			return err
		}
	}
}

// maybeCheckpoint drives the OnCheckpoint sink at the configured cadence.
// It runs at the top of a loop iteration, i.e. at the boundary after the
// previous cycle (and its trigger/balance decision) fully completed, so
// the snapshot is exactly the k-cycle prefix state.
func (m *Machine[S]) maybeCheckpoint() error {
	every := m.opts.CheckpointEvery
	if every <= 0 || m.ckpt == nil || m.stats.Cycles == 0 || m.stats.Cycles%every != 0 {
		return nil
	}
	snap, err := m.Snapshot()
	if err != nil {
		return err
	}
	return m.ckpt(snap)
}

// done reports whether every stack is empty: all has-work bitset words
// zero, one compare per 64 PEs instead of a pointer chase per PE.
func (m *Machine[S]) done() bool { return m.arena.NoWork() }

// anyDonor reports whether some PE can split its work (any can-split
// bitset word non-zero).
func (m *Machine[S]) anyDonor() bool { return m.arena.AnySplittable() }

// checkBudget enforces the MaxCycles safety valve.
func (m *Machine[S]) checkBudget() error {
	if m.opts.MaxCycles > 0 && m.stats.Cycles >= m.opts.MaxCycles {
		return fmt.Errorf("simd: %w MaxCycles=%d (W so far %d)", ErrBudgetExceeded, m.opts.MaxCycles, m.stats.W)
	}
	return nil
}

// ErrBudgetExceeded is wrapped by the error a run returns when it stops at
// the Options.MaxCycles node-expansion budget.  Callers that treat budget
// exhaustion as a first-class outcome (rather than a failure) detect it
// with errors.Is.
var ErrBudgetExceeded = errors.New("exceeded")

// checkCtx polls the run's context at a cycle boundary.  It never fires
// mid-cycle, so the completed prefix of the schedule is untouched by
// cancellation; it marks the partial stats and returns the cancellation
// cause.
func (m *Machine[S]) checkCtx() error {
	select {
	case <-m.ctx.Done():
		m.stats.Cancelled = true
		return context.Cause(m.ctx)
	default:
		return nil
	}
}

// ErrNotResident is wrapped by the error a run returns when a PE's has-work
// flag was set at a cycle boundary but it had no node in memory to pop: its
// stack was evicted and the Spiller's Barrier did not restore it, or the
// flag no longer matched the stack.  The PE is not expanded and not counted
// in W; the run stops at the end of that cycle.
var ErrNotResident = errors.New("has work but no resident node")

// notResident turns the kernel's report of such a PE (-1: there was none)
// into the run's error, once the cycle is booked.
func (m *Machine[S]) notResident(pe int) error {
	if pe < 0 {
		return nil
	}
	return fmt.Errorf("simd: PE %d %w at cycle %d", pe, ErrNotResident, m.stats.Cycles)
}

// cycle performs one lock-step node-expansion cycle: every PE with work
// pops its next node, tests it for the goal and pushes its successors.  It
// returns the number of PEs that expanded a node and charges the virtual
// clock; the second result is the kernel's Expansion.NotResident, which the
// caller hands to notResident.
//
//lint:hotpath
func (m *Machine[S]) cycle() (active, lost int) {
	res := stack.Expansion{NotResident: -1}
	if m.workers == 1 {
		res = m.expandRange(0, m.stats.P, m.scratch[0])
	} else {
		m.parallel(m.taskExpand)
		for _, r := range m.cycleRes {
			res.Merge(r)
		}
	}

	active = int(res.Expanded)
	m.goals += res.Goals
	if res.Peak > m.stats.PeakStack {
		m.stats.PeakStack = res.Peak
	}

	ucalc := m.costs.NodeExpansion
	m.stats.W += res.Expanded
	m.stats.Cycles++
	m.stats.Tpar += ucalc
	idle := time.Duration(m.stats.P-active) * ucalc
	m.stats.Tidle += idle
	m.phaseCycles++
	m.phaseElapsed += ucalc
	m.phaseWork += time.Duration(active) * ucalc
	m.phaseIdle += idle

	if m.opts.Progress != nil && m.stats.Cycles%m.opts.ProgressEvery == 0 {
		m.opts.Progress(ProgressInfo{
			Cycles:   m.stats.Cycles,
			Active:   active,
			W:        m.stats.W,
			LBPhases: m.stats.LBPhases,
			Tpar:     m.stats.Tpar,
		})
	}
	return active, res.NotResident
}

// expandRange runs the expansion cycle of the PEs in [lo, hi) — the whole
// machine, one worker's shard, or a driven steal shard — as one call into
// the arena's word-at-a-time kernel (stack.Arena.ExpandCycle): the engine
// cycle never pops, pushes or syncs flag bits PE by PE.  Every shard's lo
// is a multiple of 64, which is what lets concurrent shards store whole
// flag words.
func (m *Machine[S]) expandRange(lo, hi int, sc *stack.ExpandScratch[S]) stack.Expansion {
	return m.arena.ExpandCycle(m.d, lo, hi, sc)
}

// triggerState assembles the globally reduced view a trigger sees after a
// cycle.
func (m *Machine[S]) triggerState(active int) trigger.State {
	return trigger.State{
		P:       m.stats.P,
		Active:  active,
		Cycles:  m.phaseCycles,
		Elapsed: m.phaseElapsed,
		Work:    m.phaseWork,
		Idle:    m.phaseIdle,
		EstLB:   m.estLB,
	}
}

// recordSample emits the per-cycle trace sample, including the trigger
// geometry of Figure 1 (R1 and R2 for the dynamic triggers; A and x*P for
// static ones).
func (m *Machine[S]) recordSample(st trigger.State) {
	if m.opts.Trace == nil {
		return
	}
	var r1, r2 time.Duration
	switch t := m.sch.Trigger.(type) {
	case trigger.DP:
		r1 = st.Work - time.Duration(st.Active)*st.Elapsed
		r2 = time.Duration(st.Active) * st.EstLB
	case trigger.DK:
		r1 = st.Idle
		r2 = time.Duration(st.P) * st.EstLB
	case trigger.Static:
		r1 = time.Duration(st.Active)
		r2 = time.Duration(t.X * float64(st.P))
	default:
		r1 = time.Duration(st.Active)
	}
	m.opts.Trace.RecordCycle(trace.Sample{
		Cycle:  m.stats.Cycles,
		Active: st.Active,
		R1:     r1,
		R2:     r2,
	})
}

// balance runs one load-balancing phase, charges its cost, and resets the
// search-phase accumulators.
//
//lint:hotpath
func (m *Machine[S]) balance(initPhase bool) {
	ctx := m.lbCtx
	ctx.reset(m.opts.Trace.WantDonors())
	rounds, transfers := m.sch.Balancer.Balance(ctx)
	var cost time.Duration
	if pc, ok := m.sch.Balancer.(PhaseCoster); ok {
		cost = pc.PhaseCost(m.costs, m.topo, m.stats.P, rounds)
	} else {
		cost = m.costs.PhaseCost(m.topo, m.stats.P, rounds)
	}
	cost += m.costs.MessageCost(m.topo, m.stats.P, ctx.maxTransfer)

	m.stats.Tpar += cost
	m.stats.Tlb += cost * time.Duration(m.stats.P)
	m.stats.LBPhases++
	m.stats.Transfers += transfers
	if initPhase {
		m.stats.InitPhases++
	}
	if ctx.maxTransfer > m.stats.MaxTransfer {
		m.stats.MaxTransfer = ctx.maxTransfer
	}
	m.estLB = cost
	m.phaseCycles = 0
	m.phaseElapsed = 0
	m.phaseWork = 0
	m.phaseIdle = 0
	if m.opts.Trace != nil {
		m.opts.Trace.RecordPhase(trace.Event{
			Cycle:     m.stats.Cycles,
			Transfers: transfers,
			Cost:      cost,
			Donors:    ctx.donors,
		})
	}
}
