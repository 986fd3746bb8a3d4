package simd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/stack"
	"simdtree/internal/topology"
	"simdtree/internal/trace"
	"simdtree/internal/trigger"
)

// Lanes is where the PEs of a run live: the cycle-boundary operations the
// paper's control loop needs from them, each reduced to scalars.  A Machine
// implements it over its arena; internal/steal's Driver implements it over
// shards hosted on other nodes.  Schedule.Run is the only caller and never
// overlaps two calls.
type Lanes interface {
	// Status reports whether every stack is empty before the first cycle
	// of a Run; afterwards the loop carries the flag from CycleInfo.
	Status(ctx context.Context) (allEmpty bool, err error)
	// Held reports the stack sizes at this cycle boundary: held[s] PEs
	// hold s nodes, and the last bucket counts the PEs that hold
	// len(held)-1 or more.  It returns nil when the lanes cannot say, and
	// then the loop asks for one cycle at a time.  The loop asks only at a
	// boundary where the trigger and the run's options allow a batch.
	Held() []int32
	// Cycle runs len(infos) lock-step node-expansion cycles (for a
	// memory-bounded machine, the fault barrier first) and fills infos[j]
	// with cycle j, the loop's own scratch.  The loop asks for more than
	// one only when the stack sizes Held reported prove that no
	// load-balancing phase can fall between them.  A cycle that faults
	// sets its Fault; the cycles after it are not booked.  An error books
	// nothing: the cycles did not happen.
	Cycle(ctx context.Context, infos []CycleInfo) error
	// Balance runs one load-balancing phase: matching rounds and the
	// transfers of each matched pair.
	Balance(ctx context.Context, wantDonors bool) (PhaseInfo, error)
	// EndCycle closes a loop iteration after its trigger/balance decision:
	// the spill sweep of a memory-bounded machine, nothing remotely.
	EndCycle() error
	// Checkpoint captures the state at this cycle boundary and hands it to
	// the run's sink, if one is registered.
	Checkpoint(ctx context.Context) error
}

// CycleInfo is the globally reducible result of one expansion cycle:
// exactly the quantities the loop derives from a cycle before making its
// trigger and balance decisions.
type CycleInfo struct {
	// Active is the number of PEs that expanded a node this cycle.
	Active int
	// Goals is the number of goal nodes found this cycle.
	Goals int64
	// Peak is the largest stack size observed this cycle.
	Peak int
	// AllEmpty reports that every stack is empty after the cycle (the
	// loop's termination condition for the next iteration).
	AllEmpty bool
	// AnyDonor reports that some PE can split its work after the cycle
	// (the donor-eligibility half of the balance gate).
	AnyDonor bool
	// Fault is set when the cycle ran but cannot be trusted to continue —
	// a PE was stranded (ErrNotResident).  Unlike a Cycle error the cycle
	// is booked, then the run stops with Fault.
	Fault error
}

// PhaseInfo is the reduced result of one load-balancing phase.
type PhaseInfo struct {
	// Rounds is the number of matching/transfer rounds; each costs
	// communication (Costs.PhaseCost).
	Rounds int
	// Transfers is the number of pairs that moved work.
	Transfers int
	// MaxTransfer is the largest single transfer, in stack nodes.
	MaxTransfer int
	// Donors lists the donor PE of each transfer in order, when asked for.
	Donors []int
	// Busy is the number of PEs that hold work after the phase, a
	// popcount of the has-work flag words; 0 when the lanes do not count
	// them (a phase runs only when some PE can donate, so it is never a
	// count), and then the loop bounds it by the PEs busy before the
	// phase plus its transfers.
	Busy int
}

// Ledger is the schedule's whole mutable state at a cycle boundary: what a
// snapshot carries besides the stacks, and what a distributed run keeps on
// the coordinator.
type Ledger struct {
	// InitDone reports that the Section 7 initial-distribution phase has
	// completed; a restored run with InitDone false re-enters it.
	InitDone bool

	// Search-phase accumulators since the last load-balancing phase — what
	// the D^K and D^P triggers read (w_idle, w, t) and the static
	// trigger's phase position.
	PhaseCycles  int
	PhaseElapsed time.Duration
	PhaseWork    time.Duration
	PhaseIdle    time.Duration
	// EstLB is L, the projected cost of the next balancing phase.
	EstLB time.Duration

	// Stats are the cumulative Section 3.1 aggregates of the prefix.
	Stats metrics.Stats
}

// IdleOverLP is D^K's trigger ratio (equation 4): the current search
// phase's w_idle over L·P, so D^K balances once it reaches 1.  It is 0
// when L·P is 0.
func (l Ledger) IdleOverLP() float64 {
	lp := float64(l.Stats.P) * float64(l.EstLB)
	if lp == 0 {
		return 0
	}
	return float64(l.PhaseIdle) / lp
}

// ProgressInfo is the snapshot handed to Options.Progress: the Ledger
// right after an expansion cycle was booked, and that cycle's busy
// processors.
type ProgressInfo struct {
	Ledger
	Active int
}

// Schedule is the paper's Section 3 machine as one loop: lock-step
// expansion cycles, the trigger evaluated on globally reduced scalars
// between them, load-balancing phases charged to the virtual clock, and
// Section 7's initial distribution in front.  Every decision in it is a
// function of the Ledger and of the scalars Lanes returns, so the schedule
// is the same wherever the PEs live.
type Schedule struct {
	Ledger
	// Trace, when non-nil, receives the per-cycle samples and per-phase
	// events (Figures 1 and 8).
	Trace *trace.Trace

	costs   Costs
	topo    topology.Network
	trigger trigger.Trigger
	// coster overrides the phase cost model when the balancer brings its
	// own (PhaseCoster); nil charges Costs.PhaseCost.
	coster PhaseCoster
	// initTarget is the active-PE count that ends the initial
	// distribution; 0 means the run has none.
	initTarget int

	stopAtFirstGoal bool
	maxCycles       int
	checkpointEvery int
	progress        func(ProgressInfo)
	progressEvery   int

	// infos is the scratch Lanes.Cycle fills, one slot per cycle of a batch.
	infos [stack.MaxBatch]CycleInfo
}

// NewSchedule copies the schedule inputs out of opts (P, costs, topology,
// init/stop/budget/checkpoint/progress settings, trace) and starts a fresh
// ledger.  wantInit is the scheme's say on the initial distribution when
// opts.InitThreshold leaves it open.  The trigger is Reset, so schemes may
// be reused across runs.
func NewSchedule(opts Options, trig trigger.Trigger, wantInit bool) *Schedule {
	s := &Schedule{
		Trace:           opts.Trace,
		costs:           opts.Costs.normalize(),
		topo:            opts.Topology,
		trigger:         trig,
		stopAtFirstGoal: opts.StopAtFirstGoal,
		maxCycles:       opts.MaxCycles,
		checkpointEvery: opts.CheckpointEvery,
		progress:        opts.Progress,
		progressEvery:   opts.ProgressEvery,
	}
	if s.topo == nil {
		s.topo = topology.CM2{}
	}
	if s.progressEvery <= 0 {
		s.progressEvery = 1000
	}
	th := opts.InitThreshold
	if th == 0 && wantInit {
		th = 0.85
	}
	if th > 0 {
		s.initTarget = int(math.Ceil(math.Min(th, 1) * float64(opts.P)))
	}
	trig.Reset()
	s.Stats.P = opts.P
	s.EstLB = s.costs.PhaseCost(s.topo, opts.P, 1) // one round: the a-priori L before any phase has run
	return s
}

// ErrBudgetExceeded is wrapped by the error a run returns when it stops at
// the Options.MaxCycles node-expansion budget.  Callers that treat budget
// exhaustion as a first-class outcome (rather than a failure) detect it
// with errors.Is.
var ErrBudgetExceeded = errors.New("exceeded")

// Run advances the schedule over l until every stack is empty, or until
// the budget, the context, a goal (StopAtFirstGoal) or an error stops it.
// Partial aggregates are consistent whenever it returns: the Ledger is the
// exact prefix of the schedule that completed.
//
// The order of one iteration is pinned — the spill gates compare runs with
// zero tolerance: done, budget, context (then the stop-time checkpoint),
// checkpoint, (barrier and) the batch's cycles, then for each of them book,
// sample, stop-at-goal, trigger/balance, sweep.  The batch is as many
// cycles as horizon proves trigger-free, one when it cannot.  Everything
// above the cycles happens at the boundary after the previous cycle and its
// trigger/balance decision fully completed, so a checkpoint is exactly the
// k-cycle prefix state.  The
// context is polled only there: every Lanes call gets it without its
// cancellation, so a cancel never interrupts a call, local or remote, and
// a run cancelled after k cycles is bit-for-bit the k-cycle prefix of the
// uncancelled run.  When CheckpointEvery is set, a cancelled run takes
// one last checkpoint of that prefix before it returns, so a resume loses
// no completed cycle; its error is joined to the cancel cause.  During the
// initial distribution the
// trigger is replaced by "balance after every cycle until initTarget PEs
// are active"; the iteration that reaches the target neither balances nor
// sweeps, it goes straight to the next boundary.
func (s *Schedule) Run(ctx context.Context, l Lanes) error {
	// A run resumed after cancellation starts a fresh verdict.
	s.Stats.Cancelled = false
	if s.initTarget == 0 {
		s.InitDone = true
	}
	// stop is polled at the boundary; the Lanes calls never see its cancel.
	stop := ctx
	ctx = context.WithoutCancel(ctx)
	allEmpty, err := l.Status(ctx)
	if err != nil {
		return err
	}
	// busy bounds the PEs that hold work at the boundary: the last cycle's
	// Active, or after a phase the count the lanes took of it (the last
	// cycle's Active plus the phase's receivers when they took none); P
	// when unknown.
	busy := s.Stats.P
	for {
		if allEmpty {
			s.InitDone = true
			return nil
		}
		if s.maxCycles > 0 && s.Stats.Cycles >= s.maxCycles {
			return fmt.Errorf("simd: %w MaxCycles=%d (W so far %d)", ErrBudgetExceeded, s.maxCycles, s.Stats.W)
		}
		select {
		case <-stop.Done():
			s.Stats.Cancelled = true
			if s.checkpointEvery > 0 {
				if err := l.Checkpoint(ctx); err != nil {
					return errors.Join(context.Cause(stop), err)
				}
			}
			return context.Cause(stop)
		default:
		}
		if every := s.checkpointEvery; every > 0 && s.Stats.Cycles != 0 && s.Stats.Cycles%every == 0 {
			if err := l.Checkpoint(ctx); err != nil {
				return err
			}
		}
		infos := s.infos[:s.horizon(l, busy)]
		if err := l.Cycle(ctx, infos); err != nil {
			return err
		}
		for j := range infos {
			info := &infos[j]
			allEmpty, busy = info.AllEmpty, info.Active
			s.bookCycle(info)
			if info.Fault != nil {
				return fmt.Errorf("%w at cycle %d", info.Fault, s.Stats.Cycles)
			}
			// The globally reduced view a trigger sees after a cycle.
			st := trigger.State{
				P:       s.Stats.P,
				Active:  info.Active,
				Cycles:  s.PhaseCycles,
				Elapsed: s.PhaseElapsed,
				Work:    s.PhaseWork,
				Idle:    s.PhaseIdle,
				EstLB:   s.EstLB,
			}
			s.recordSample(st)
			if s.stopAtFirstGoal && s.Stats.Goals > 0 {
				return nil
			}
			init := !s.InitDone
			if init && info.Active >= s.initTarget {
				s.InitDone = true
				continue
			}
			if (init || s.trigger.ShouldBalance(st)) && info.Active < s.Stats.P && info.AnyDonor {
				if j < len(infos)-1 {
					return fmt.Errorf("simd: trigger %s fired at cycle %d, inside a batch of %d cycles its horizon ruled out", s.trigger.Name(), s.Stats.Cycles, len(infos))
				}
				ph, err := l.Balance(ctx, s.Trace.WantDonors())
				if err != nil {
					return err
				}
				s.bookPhase(ph, init)
				if ph.Busy > 0 {
					busy = ph.Busy
				} else {
					busy += ph.Transfers
				}
			}
			if err := l.EndCycle(); err != nil {
				return err
			}
			if allEmpty {
				break
			}
		}
	}
}

// horizon is how many cycles the loop may run before it next evaluates the
// trigger for real: the first cycle at which the stack sizes l holds allow it
// to fire, or the batch limit.  A PE that holds s nodes pops one a cycle and
// gets none from others until the next phase, so it is busy for at least s
// cycles, and no PE that holds none gets work.  With h(m) the PEs that hold
// at least m nodes, after cycle j of the batch (0-based) the worst case is
// A = h(j+1), w_idle = PhaseIdle + sum over i <= j of (P - h(i+1))*Ucalc and
// w = PhaseWork + (j+1)*h(1)*Ucalc, with t and the cycle count exact.  The
// trigger is asked at that corner, which bounds it only when it is monotone
// in those fields — the built-in five are — and not when A = P, where the
// balance gate is shut.  It is 1 during the initial distribution, when the
// run stops at its first goal, for any other trigger and when Held is nil,
// and the batch ends on a checkpoint cycle, a progress tick and MaxCycles.
// Held is asked last, so a boundary that cannot batch costs no scan: first
// the trigger is asked after one cycle at the corner least likely to fire
// that at most busy PEs with work allow (A = busy, w_idle and w smallest),
// and if it fires even there the batch is one cycle.
func (s *Schedule) horizon(l Lanes, busy int) int {
	if !s.InitDone || s.stopAtFirstGoal {
		return 1
	}
	switch s.trigger.(type) {
	case trigger.DK, trigger.DKGamma, trigger.Static, trigger.DP, trigger.AnyIdle:
	default:
		return 1
	}
	k := len(s.infos)
	cycles := s.Stats.Cycles
	if s.maxCycles > 0 {
		k = min(k, s.maxCycles-cycles)
	}
	if every := s.checkpointEvery; every > 0 {
		k = min(k, every-cycles%every)
	}
	if s.progress != nil {
		k = min(k, s.progressEvery-cycles%s.progressEvery)
	}
	if k <= 1 {
		return 1
	}
	p, ucalc := s.Stats.P, s.costs.NodeExpansion
	st := trigger.State{P: p, Cycles: s.PhaseCycles, Elapsed: s.PhaseElapsed, Work: s.PhaseWork, Idle: s.PhaseIdle, EstLB: s.EstLB}
	first := st
	first.Active, first.Cycles, first.Elapsed = busy, st.Cycles+1, st.Elapsed+ucalc
	first.Idle += time.Duration(p-busy) * ucalc
	if busy < p && s.trigger.ShouldBalance(first) {
		return 1
	}
	held := l.Held()
	if len(held) < 2 {
		return 1
	}
	k = min(k, len(held)-1)
	// h[m-1] = h(m): the PEs that hold at least m nodes.
	var h [stack.MaxBatch]int
	at := 0
	for m := len(held) - 1; m >= 1; m-- {
		at += int(held[m])
		if m <= k {
			h[m-1] = at
		}
	}
	for j := 0; j < k-1; j++ {
		st.Active = h[j]
		st.Cycles++
		st.Elapsed += ucalc
		st.Work += time.Duration(h[0]) * ucalc
		st.Idle += time.Duration(p-h[j]) * ucalc
		if st.Active < p && s.trigger.ShouldBalance(st) {
			return j + 1
		}
	}
	return k
}

// bookCycle charges one expansion cycle to the virtual clock and the
// search-phase accumulators.
func (s *Schedule) bookCycle(info *CycleInfo) {
	st := &s.Stats
	ucalc := s.costs.NodeExpansion
	work := time.Duration(info.Active) * ucalc
	idle := time.Duration(st.P-info.Active) * ucalc
	st.W += int64(info.Active)
	st.Goals += info.Goals
	if info.Peak > st.PeakStack {
		st.PeakStack = info.Peak
	}
	st.Cycles++
	if !s.InitDone {
		st.InitCycles++
	}
	st.Tpar += ucalc
	st.Tcalc += work
	st.Tidle += idle
	s.PhaseCycles++
	s.PhaseElapsed += ucalc
	s.PhaseWork += work
	s.PhaseIdle += idle

	if s.progress != nil && st.Cycles%s.progressEvery == 0 {
		s.progress(ProgressInfo{Ledger: s.Ledger, Active: info.Active})
	}
}

// recordSample emits the per-cycle trace sample, including the trigger
// geometry of Figure 1 (R1 and R2 for the dynamic triggers; A and x*P for
// static ones).
func (s *Schedule) recordSample(st trigger.State) {
	if s.Trace == nil {
		return
	}
	var r1, r2 time.Duration
	switch t := s.trigger.(type) {
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
	s.Trace.RecordCycle(trace.Sample{
		Cycle:  s.Stats.Cycles,
		Active: st.Active,
		R1:     r1,
		R2:     r2,
	})
}

// bookPhase charges one load-balancing phase and resets the search-phase
// accumulators.
func (s *Schedule) bookPhase(ph PhaseInfo, init bool) {
	st := &s.Stats
	var cost time.Duration
	if s.coster != nil {
		cost = s.coster.PhaseCost(s.costs, s.topo, st.P, ph.Rounds)
	} else {
		cost = s.costs.PhaseCost(s.topo, st.P, ph.Rounds)
	}
	cost += s.costs.MessageCost(s.topo, st.P, ph.MaxTransfer)

	st.Tpar += cost
	st.Tlb += cost * time.Duration(st.P)
	st.LBPhases++
	st.Transfers += ph.Transfers
	if init {
		st.InitPhases++
	}
	if ph.MaxTransfer > st.MaxTransfer {
		st.MaxTransfer = ph.MaxTransfer
	}
	s.EstLB = cost
	s.PhaseCycles = 0
	s.PhaseElapsed = 0
	s.PhaseWork = 0
	s.PhaseIdle = 0
	s.Trace.RecordPhase(trace.Event{
		Cycle:     st.Cycles,
		Transfers: ph.Transfers,
		Cost:      cost,
		Donors:    ph.Donors,
	})
}
