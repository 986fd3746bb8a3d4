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
	"runtime"
	"sync"

	"simdtree/internal/metrics"
	"simdtree/internal/search"
	"simdtree/internal/stack"
	"simdtree/internal/topology"
	"simdtree/internal/trace"
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
	// for any worker count: a domain's Goal and Expand may depend on
	// nothing but their node (see search.Domain), except a search.Shared
	// domain's, which the machine expands on one goroutine in PE order.
	Workers int
	// MaxCycles aborts runaway simulations; 0 means no limit.
	MaxCycles int
	// Trace, when non-nil, records per-cycle active counts and trigger
	// quantities (Figures 1 and 8).
	Trace *trace.Trace
	// Progress, when non-nil, is called every ProgressEvery expansion
	// cycles (default 1000) with the schedule's record (ProgressInfo) —
	// useful for the multi-minute full-scale runs.  It runs on the
	// simulation goroutine; keep it cheap.
	Progress func(ProgressInfo)
	// ProgressEvery sets the Progress callback cadence in cycles.
	ProgressEvery int
	// CheckpointEvery invokes the checkpoint sink registered with
	// Machine.OnCheckpoint every N completed expansion cycles, at the
	// cycle boundary (the only point where the machine state is a
	// well-defined prefix of the schedule), and once more when the run
	// is cancelled, at the boundary it stops at.  0 disables both; the
	// sink can still be driven manually via Snapshot.
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

// Machine is the mutable state of one simulated run.  NewMachine builds
// one; RunContext (the method) advances it to completion.  Between cycles
// — before RunContext starts, after it returns on cancellation, or inside
// an OnCheckpoint sink — the machine is quiescent and Snapshot /
// RestoreSnapshot may capture or replace its state.  The package-level Run
// and RunContext remain the one-call form for runs that never checkpoint.
type Machine[S any] struct {
	d    search.Domain[S]
	sch  Scheme[S]
	opts Options

	// sched is the run loop and its ledger (stats, phase accumulators,
	// virtual clock); the machine is the Lanes it runs over.
	sched *Schedule

	// arena holds every PE stack: one flat array of per-PE records (sizes,
	// offsets, top-level count), contiguous per-PE node buffers, and the
	// has-work and can-split bitsets the cycle loop reduces over.
	arena   *stack.Arena[S]
	workers int

	// shards are the fixed [lo, hi) PE ranges the worker goroutines cover,
	// computed once at construction rather than re-derived every cycle.
	// cycleRes and scratch are the matching per-shard result slots (one per
	// cycle of a batch) and expansion-kernel scratch, reused every batch so
	// the hot path does not allocate (each scratch is its own allocation:
	// two shards never write the same cache line); taskExpand is the
	// pre-bound shard task, batch the cycles it runs.
	shards     []shardRange
	cycleRes   [][stack.MaxBatch]stack.Expansion
	scratch    []*stack.ExpandScratch[S]
	taskExpand func(w int)
	batch      int
	lastBusy   int                       // PEs the previous cycle expanded: what expand sizes this batch by
	held       [stack.MaxBatch + 1]int32 // Lanes.Held's histogram, read off the arena

	// shared is set for a search.Shared domain: one cycle a call, expanded
	// on the calling goroutine in PE order.
	shared bool

	// Worker pool: goroutines that live as long as RunContext, one per shard
	// but the first, and execute parTask on their shard between two barriers
	// while the caller runs shard 0.  parReady[w-1] wakes shard w's (nil:
	// the pool is down); parPanic[w] is what shard w's task panicked with.
	parReady []chan struct{}
	parWG    sync.WaitGroup
	parTask  func(w int)
	parPanic []any

	// lbCtx is the reusable load-balancing context, reset per phase.
	lbCtx *Context[S]

	// ckpt is the sink registered with OnCheckpoint, driven every
	// Options.CheckpointEvery cycles.
	ckpt func(*Snapshot[S]) error

	// spiller is the residency manager registered with SetSpiller; nil
	// runs unbounded.  spillErr latches the first residency error raised
	// where none can be returned — a fault inside a balancing phase's
	// transfer path; the run loop surfaces it at the next boundary.
	spiller  Spiller[S]
	spillErr error
}

// Run simulates the parallel search of d under scheme sch and returns the
// Section 3.1 statistics.  It is RunContext with a background context.
func Run[S any](d search.Domain[S], sch Scheme[S], opts Options) (metrics.Stats, error) {
	//lint:allow ctxflow the experiment runners and examples run to completion and never cancel
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
	if r, ok := sch.Balancer.(interface{ Reset() }); ok {
		r.Reset()
	}

	m := &Machine[S]{d: d, sch: sch, opts: opts, sched: NewSchedule(opts, sch.Trigger, sch.WantInit)}
	_, m.shared = d.(search.Shared)
	m.sched.coster, _ = sch.Balancer.(PhaseCoster)
	m.arena = stack.NewArena[S](opts.P)
	m.arena.PushLevel(0, []S{d.Root()})

	m.shards = makeShards(opts.P, min(max(opts.Workers, 1), opts.P))
	m.workers = len(m.shards)
	m.cycleRes = make([][stack.MaxBatch]stack.Expansion, len(m.shards))
	m.scratch = make([]*stack.ExpandScratch[S], len(m.shards))
	for w := range m.scratch {
		m.scratch[w] = new(stack.ExpandScratch[S])
	}
	m.taskExpand = func(w int) {
		sh := m.shards[w]
		m.arena.ExpandCycle(m.d, sh.lo, sh.hi, m.scratch[w], m.cycleRes[w][:m.batch])
	}
	m.lbCtx = &Context[S]{
		Arena:    m.arena,
		Splitter: m.sch.Splitter,
		Topo:     m.sched.topo,
		workers:  m.workers,
		nodes:    make([][]S, m.workers),
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
	chunk := ((p+workers-1)/workers + 63) &^ 63
	shards := make([]shardRange, 0, workers)
	for lo := 0; lo < p; lo += chunk {
		shards = append(shards, shardRange{lo: lo, hi: min(lo+chunk, p)})
	}
	return shards
}

// startPool launches the worker-pool goroutines; a no-op for sequential
// machines, a pool already up, one P, where goroutines only take turns, and
// a search.Shared domain, which is expanded in PE order.
func (m *Machine[S]) startPool() {
	if m.workers <= 1 || m.parReady != nil || runtime.GOMAXPROCS(0) == 1 || m.shared {
		return
	}
	m.parPanic = make([]any, m.workers)
	m.parReady = make([]chan struct{}, m.workers-1)
	for i := range m.parReady {
		ch := make(chan struct{}, 1)
		m.parReady[i] = ch
		go func(w int) {
			for range ch {
				m.runShard(w)
				m.parWG.Done()
			}
		}(i + 1)
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

// runShard runs parTask on shard w and parks a panic in the shard's slot: on a
// pool goroutine no caller's recover could reach it and the process would die.
func (m *Machine[S]) runShard(w int) {
	defer m.parkPanic(w)
	m.parTask(w)
}

func (m *Machine[S]) parkPanic(w int) { m.parPanic[w] = recover() }

// parallel runs task once per shard — shard 0 on the calling goroutine, the
// rest on the pool — and waits for all of them.  The channel send publishes
// parTask to the pool goroutines and the WaitGroup publishes their writes
// back, so tasks may freely write their own shard's slots.  A panicking task
// still completes the barrier; the lowest such shard's value — the one a
// sequential run stops at — is re-raised here, for RunContext's caller to
// recover.  Without a pool (sequential machine, one P, a call outside
// RunContext) the shards run in order on the calling goroutine.
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
	m.runShard(0)
	m.parWG.Wait()
	for _, r := range m.parPanic {
		if r != nil {
			panic(r)
		}
	}
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
	if m.opts.MemBudget > 0 && m.spiller == nil {
		return m.sched.Stats, errors.New("simd: Options.MemBudget set but no spill manager registered (SetSpiller)")
	}
	m.startPool()
	defer m.stopPool() // also on a panicking domain: no goroutine outlives the run
	err := m.sched.Run(ctx, machineLanes[S]{m})
	return m.sched.Stats, err
}

// machineLanes is the Lanes whose PEs are the machine's own arena.
type machineLanes[S any] struct{ m *Machine[S] }

func (l machineLanes[S]) Status(context.Context) (bool, error) { return l.m.arena.NoWork(), nil }

// Held reads the stack-size histogram off the arena (stack.Arena.Held).  It
// is nil for a memory-bounded machine and a search.Shared domain, which
// expand one cycle a call.
func (l machineLanes[S]) Held() []int32 {
	m := l.m
	if m.spiller != nil || m.shared {
		return nil
	}
	m.arena.Held(&m.held)
	return m.held[:]
}

// Cycle restores the stranded stack tops of a memory-bounded machine, then
// expands; a fault error latched inside the previous balancing phase
// surfaces here or at EndCycle, whichever boundary comes first.
func (l machineLanes[S]) Cycle(_ context.Context, infos []CycleInfo) error {
	if err := l.m.spillBarrier(); err != nil {
		return err
	}
	l.m.stepCycles(infos)
	return nil
}

func (l machineLanes[S]) Balance(_ context.Context, wantDonors bool) (PhaseInfo, error) {
	return l.m.balance(wantDonors), nil
}

func (l machineLanes[S]) EndCycle() error { return l.m.spillSweep() }

// Checkpoint drives the OnCheckpoint sink with a deep snapshot.
func (l machineLanes[S]) Checkpoint(context.Context) error {
	if l.m.ckpt == nil {
		return nil
	}
	snap, err := l.m.Snapshot()
	if err != nil {
		return err
	}
	return l.m.ckpt(snap)
}

// ErrNotResident is wrapped by the error a run returns when a PE's has-work
// flag was set at a cycle boundary but it had no node in memory to pop: its
// stack was evicted and the Spiller's Barrier did not restore it, or the
// flag no longer matched the stack.  The PE is not expanded and not counted
// in W; the run stops at the end of that cycle.
var ErrNotResident = errors.New("has work but no resident node")

// ErrExpandTruncated is wrapped by the error a run returns when the domain's
// Expand returned fewer elements than it was handed — a PE's live stack, see
// search.Domain — so the result was not adopted; the run stops after the cycle.
var ErrExpandTruncated = errors.New("Expand returned fewer elements than it was handed")

// expand performs k lock-step node-expansion cycles: every PE with work
// pops its next node, tests it for the goal and pushes its successors, k
// times or until it runs dry.  It is one call into the arena's word-at-a-time
// kernel over the whole machine or, when the batch is big enough to repay
// waking the pool, one per shard, reduced cycle by cycle in shard order
// (every shard starts on a multiple of 64, which is what lets concurrent
// shards store whole flag words).
func (m *Machine[S]) expand(k int) []stack.Expansion {
	res := m.cycleRes[0][:k]
	if m.parReady == nil || m.lastBusy*k < m.workers*poolShardMin {
		m.arena.ExpandCycle(m.d, 0, m.opts.P, m.scratch[0], res)
	} else {
		m.batch = k
		m.parallel(m.taskExpand)
		for w := 1; w < m.workers; w++ {
			for j := range res {
				res[j].Merge(m.cycleRes[w][j])
			}
		}
	}
	m.lastBusy = int(res[k-1].Expanded)
	return res
}

// balance runs one load-balancing phase on the reusable context; the
// schedule charges its cost.  It counts the PEs left holding work off the
// has-work words, P/64 popcounts, so the next boundary's horizon starts
// from the exact count.
func (m *Machine[S]) balance(wantDonors bool) PhaseInfo {
	ctx := m.lbCtx
	ctx.reset(wantDonors)
	rounds, transfers := m.sch.Balancer.Balance(ctx)
	return PhaseInfo{Rounds: rounds, Transfers: transfers, MaxTransfer: ctx.maxTransfer, Donors: ctx.donors, Busy: m.arena.WorkBits().CountBits()}
}
