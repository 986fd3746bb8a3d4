package simd

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/queens"
	"simdtree/internal/trace"
	"simdtree/internal/trigger"
)

// scriptedLanes replays hand-written cycle and phase results and records
// the order of the calls it receives: a Lanes with no arena and no domain,
// so what the tests below assert about the accounting comes from the
// paper's definitions, not from the engine's own output.
type scriptedLanes struct {
	cycles []CycleInfo
	phases []PhaseInfo
	// cycleErr, when set, is returned by the Cycle call with this index
	// instead of the scripted result.
	cycleErr   map[int]error
	ckptErr    error
	startEmpty bool

	calls  []string
	nCycle int
	nPhase int
	// onCall, when set, observes every call before it is served.
	onCall func(call string)
}

func (l *scriptedLanes) log(call string) {
	if l.onCall != nil {
		l.onCall(call)
	}
	l.calls = append(l.calls, call)
}

func (l *scriptedLanes) Status(context.Context) (bool, error) {
	l.log("status")
	return l.startEmpty, nil
}

// Held is nil: a script has no stacks, so the loop asks for one cycle at a
// time.
func (l *scriptedLanes) Held() []int32 { return nil }

func (l *scriptedLanes) Cycle(_ context.Context, infos []CycleInfo) error {
	i := l.nCycle
	l.nCycle++
	l.log(fmt.Sprintf("cycle%d", i+1))
	if err := l.cycleErr[i]; err != nil {
		return err
	}
	infos[0] = l.cycles[i]
	return nil
}

func (l *scriptedLanes) Balance(context.Context, bool) (PhaseInfo, error) {
	l.log("balance")
	ph := l.phases[l.nPhase]
	l.nPhase++
	return ph, nil
}

func (l *scriptedLanes) EndCycle() error {
	l.log("end")
	return nil
}

func (l *scriptedLanes) Checkpoint(context.Context) error {
	l.log("checkpoint")
	return l.ckptErr
}

// Round unit costs, so every expected figure below is a small integer a
// reader can check by hand: a cycle costs 10, a phase of r rounds 7r, and
// moving n nodes adds n.
const uCalc = 10 * time.Nanosecond

// On the default CM-2 network a scan and a transfer are one step each, so
// with free scans a phase is exactly 7 per round plus 1 per node moved.
var unitCosts = Costs{NodeExpansion: uCalc, TransferUnit: 7, PerNodeTransfer: 1}

// busy is a cycle with a active PEs, stacks left to split and work left.
func busy(a int) CycleInfo { return CycleInfo{Active: a, AnyDonor: true} }

// last is a run's final cycle: a active PEs and nothing left afterwards.
func last(a int) CycleInfo { return CycleInfo{Active: a, AllEmpty: true} }

func scriptOptions(p int) Options { return Options{P: p, Costs: unitCosts} }

// TestScheduleAccountingStatic scripts an 8-PE run under S^0.50 and checks
// the Section 3.1 aggregates against values worked out from the paper's
// definitions: Tpar is cycles*Ucalc plus the phase costs, Tidle the idle
// PE-cycles times Ucalc, Tlb is P times the phase costs.
func TestScheduleAccountingStatic(t *testing.T) {
	const p = 8
	lanes := &scriptedLanes{
		// A = 1, 2, 4 (= 0.5*P: S^x fires at A <= x*P), 8, 8, 3, 5.
		cycles: []CycleInfo{busy(1), busy(2), busy(4), busy(8), busy(8), busy(3), last(5)},
		phases: []PhaseInfo{
			{Rounds: 1, Transfers: 1, MaxTransfer: 3},
			{Rounds: 1, Transfers: 2, MaxTransfer: 2},
			{Rounds: 2, Transfers: 4, MaxTransfer: 5},
			{Rounds: 1, Transfers: 3, MaxTransfer: 1},
		},
	}
	tr := &trace.Trace{}
	opts := scriptOptions(p)
	opts.Trace = tr
	s := NewSchedule(opts, trigger.Static{X: 0.5}, false)
	if err := s.Run(context.Background(), lanes); err != nil {
		t.Fatal(err)
	}
	phaseCosts := (7 + 3) + (7 + 2) + (14 + 5) + (7 + 1) // rounds*7 + MaxTransfer
	want := metrics.Stats{
		P: p, W: 1 + 2 + 4 + 8 + 8 + 3 + 5, Cycles: 7,
		LBPhases: 4, Transfers: 1 + 2 + 4 + 3, MaxTransfer: 5,
		Tcalc: 31 * uCalc,
		Tidle: (7*p - 31) * uCalc,
		Tlb:   time.Duration(p * phaseCosts),
		Tpar:  7*uCalc + time.Duration(phaseCosts),
	}
	if s.Stats != want {
		t.Errorf("stats\n got %+v\nwant %+v", s.Stats, want)
	}
	if r := s.Stats.BalanceCheck(); r != 0 {
		t.Errorf("P*Tpar - (Tcalc+Tidle+Tlb) = %v, want 0", r)
	}
	// A static scheme has no initial distribution: every cycle is followed
	// by its sweep, and phases land after cycles 1, 2, 3 and 6.
	wantCalls := "status cycle1 balance end cycle2 balance end cycle3 balance end cycle4 end cycle5 end cycle6 balance end cycle7 end"
	if got := strings.Join(lanes.calls, " "); got != wantCalls {
		t.Errorf("calls\n got %s\nwant %s", got, wantCalls)
	}
	if !s.InitDone {
		t.Error("a run without an initial distribution must report InitDone")
	}
	if len(tr.Samples) != 7 || len(tr.Events) != 4 || tr.Events[2].Cost != 19 || tr.Events[2].Cycle != 3 {
		t.Errorf("trace has %d samples and events %+v", len(tr.Samples), tr.Events)
	}
}

// TestScheduleAccountingDK scripts a D^K run with the Section 7 initial
// distribution in front: phases after every cycle until 0.85*P PEs are
// active, then a phase whenever the idle time since the last one reaches
// P times the last phase's cost.
func TestScheduleAccountingDK(t *testing.T) {
	const p = 8
	lanes := &scriptedLanes{
		// Init target ceil(0.85*8) = 7, reached in cycle 3.  The last init
		// phase (after cycle 2) cost 9, so D^K fires once the idle PE-time
		// since that phase reaches 8*9 = 72: (8-A)*10 per cycle is 10, 20,
		// 30, 30 -> 90 at cycle 6.  That phase costs 8, so the next
		// threshold is 64: cycle 7's 60 is not enough, and cycle 8 crosses
		// it with no donor left.
		cycles: []CycleInfo{busy(1), busy(3), busy(7), busy(6), busy(5), busy(5), busy(2), last(4)},
		phases: []PhaseInfo{
			{Rounds: 1, Transfers: 1, MaxTransfer: 4},
			{Rounds: 1, Transfers: 3, MaxTransfer: 2},
			{Rounds: 1, Transfers: 3, MaxTransfer: 1},
		},
	}
	s := NewSchedule(scriptOptions(p), trigger.DK{}, true)
	var ledgers []Ledger // the ledger as each call, by index, found it
	lanes.onCall = func(string) { ledgers = append(ledgers, s.Ledger) }
	if err := s.Run(context.Background(), lanes); err != nil {
		t.Fatal(err)
	}
	phaseCosts := (7 + 4) + (7 + 2) + (7 + 1)
	want := metrics.Stats{
		P: p, W: 33, Cycles: 8,
		LBPhases: 3, Transfers: 7, MaxTransfer: 4,
		InitCycles: 3, InitPhases: 2,
		Tcalc: 33 * uCalc,
		Tidle: (8*p - 33) * uCalc,
		Tlb:   time.Duration(p * phaseCosts),
		Tpar:  8*uCalc + time.Duration(phaseCosts),
	}
	if s.Stats != want {
		t.Errorf("stats\n got %+v\nwant %+v", s.Stats, want)
	}
	if r := s.Stats.BalanceCheck(); r != 0 {
		t.Errorf("P*Tpar - (Tcalc+Tidle+Tlb) = %v, want 0", r)
	}
	// Cycle 3 reaches the init target: no balance and no sweep on that
	// iteration, the loop goes straight to cycle 4.
	wantCalls := "status cycle1 balance end cycle2 balance end cycle3 cycle4 end cycle5 end cycle6 balance end cycle7 end cycle8 end"
	if got := strings.Join(lanes.calls, " "); got != wantCalls {
		t.Errorf("calls\n got %s\nwant %s", got, wantCalls)
	}

	// The phase accumulators and EstLB change exactly at a phase.  Call 5
	// is cycle 2's balance (accumulators hold cycle 2 only: the first init
	// phase reset them), call 6 the sweep right after it; call 13 is cycle
	// 6's balance, with cycles 3..6 accumulated since the second init phase.
	before, after := ledgers[5], ledgers[6]
	if before.PhaseCycles != 1 || before.PhaseIdle != 5*uCalc || before.PhaseWork != 3*uCalc || before.EstLB != 11 {
		t.Errorf("ledger entering the second phase: %+v", before)
	}
	if after.PhaseCycles != 0 || after.PhaseElapsed != 0 || after.PhaseWork != 0 || after.PhaseIdle != 0 || after.EstLB != 9 {
		t.Errorf("ledger after the second phase: %+v", after)
	}
	before = ledgers[13]
	if before.PhaseCycles != 4 || before.PhaseElapsed != 4*uCalc || before.PhaseIdle != 9*uCalc || before.PhaseWork != 23*uCalc || before.EstLB != 9 {
		t.Errorf("ledger entering the D^K phase: %+v", before)
	}
	if !before.InitDone || ledgers[7].InitDone || !ledgers[8].InitDone {
		t.Error("InitDone must flip on the cycle that reaches the target")
	}
}

// TestScheduleBoundaries pins where checkpoints, the budget and
// cancellation land: only between one iteration's EndCycle and the next
// Cycle, checkpoints at multiples of CheckpointEvery before that cycle's
// Cycle.
func TestScheduleBoundaries(t *testing.T) {
	script := func() *scriptedLanes {
		l := &scriptedLanes{}
		for i := 0; i < 9; i++ {
			l.cycles = append(l.cycles, CycleInfo{Active: 4})
		}
		l.cycles = append(l.cycles, last(4))
		return l
	}
	// S^0.00 never fires with A > 0: the run is cycles only.
	never := trigger.Static{X: 0}

	t.Run("checkpoint", func(t *testing.T) {
		l := script()
		opts := scriptOptions(4)
		opts.CheckpointEvery = 3
		if err := NewSchedule(opts, never, false).Run(context.Background(), l); err != nil {
			t.Fatal(err)
		}
		got := strings.Join(l.calls, " ")
		for _, want := range []string{"cycle3 end checkpoint cycle4", "cycle6 end checkpoint cycle7", "cycle9 end checkpoint cycle10"} {
			if !strings.Contains(got, want) {
				t.Errorf("calls %q lack %q", got, want)
			}
		}
		if n := strings.Count(got, "checkpoint"); n != 3 {
			t.Errorf("%d checkpoints in %q, want 3", n, got)
		}
	})

	t.Run("budget", func(t *testing.T) {
		l := script()
		opts := scriptOptions(4)
		opts.MaxCycles = 4
		s := NewSchedule(opts, never, false)
		err := s.Run(context.Background(), l)
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("run returned %v, want ErrBudgetExceeded", err)
		}
		if got := l.calls[len(l.calls)-2:]; !reflect.DeepEqual(got, []string{"cycle4", "end"}) || s.Stats.Cycles != 4 {
			t.Errorf("budget landed after %v at cycle %d, want after cycle 4's sweep", got, s.Stats.Cycles)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		// Cancelled from inside cycle 5: the cycle still completes, is
		// booked and swept, and the run stops before cycle 6.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		l := script()
		l.onCall = func(call string) {
			if call == "cycle5" {
				cancel()
			}
		}
		s := NewSchedule(scriptOptions(4), never, false)
		err := s.Run(ctx, l)
		if !errors.Is(err, context.Canceled) || !s.Stats.Cancelled {
			t.Fatalf("run returned %v (Cancelled=%v), want context.Canceled", err, s.Stats.Cancelled)
		}
		if got := l.calls[len(l.calls)-2:]; !reflect.DeepEqual(got, []string{"cycle5", "end"}) || s.Stats.Cycles != 5 || s.Stats.W != 20 {
			t.Errorf("cancellation landed after %v at cycle %d, W=%d", got, s.Stats.Cycles, s.Stats.W)
		}
		// Running again with a live context continues in place.
		if err := s.Run(context.Background(), l); err != nil || s.Stats.Cycles != 10 || s.Stats.Cancelled {
			t.Errorf("resumed run: %v, %d cycles, Cancelled=%v", err, s.Stats.Cycles, s.Stats.Cancelled)
		}
	})

	t.Run("cancel checkpoints", func(t *testing.T) {
		// With checkpoints on, the boundary the cancel lands at takes one,
		// off the cadence: the exact 5-cycle prefix.  A failed write is
		// joined to the cancel cause.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		l := script()
		full := errors.New("disk full")
		l.onCall = func(call string) {
			if call == "cycle5" {
				cancel()
				l.ckptErr = full
			}
		}
		opts := scriptOptions(4)
		opts.CheckpointEvery = 3
		s := NewSchedule(opts, never, false)
		if err := s.Run(ctx, l); !errors.Is(err, context.Canceled) || !errors.Is(err, full) {
			t.Fatalf("run returned %v, want context.Canceled joined to the write's error", err)
		}
		if got := strings.Join(l.calls, " "); !strings.HasSuffix(got, "cycle3 end checkpoint cycle4 end cycle5 end checkpoint") {
			t.Errorf("calls %q, want the stop-time checkpoint after cycle 5's sweep", got)
		}
	})

	t.Run("empty", func(t *testing.T) {
		l := &scriptedLanes{startEmpty: true}
		s := NewSchedule(scriptOptions(4), never, false)
		if err := s.Run(context.Background(), l); err != nil || s.Stats.Cycles != 0 || len(l.calls) != 1 {
			t.Errorf("empty lanes: %v, %d cycles, calls %v", err, s.Stats.Cycles, l.calls)
		}
	})
}

// TestScheduleCycleErrorAndFault: a Cycle error books nothing — the cycle
// did not happen — while a Fault books the cycle it came with and then
// stops the run, naming the cycle.
func TestScheduleCycleErrorAndFault(t *testing.T) {
	boom := errors.New("shard unreachable")
	cycles := []CycleInfo{busy(2), busy(3), busy(4), last(1)}

	l := &scriptedLanes{cycles: cycles, cycleErr: map[int]error{2: boom}}
	s := NewSchedule(scriptOptions(4), trigger.Static{X: 0}, false)
	if err := s.Run(context.Background(), l); !errors.Is(err, boom) {
		t.Fatalf("run returned %v, want the Cycle error", err)
	}
	if s.Stats.Cycles != 2 || s.Stats.W != 5 || s.Stats.Tpar != 2*uCalc {
		t.Errorf("a failed Cycle was booked: %+v", s.Stats)
	}

	faulty := append([]CycleInfo(nil), cycles...)
	faulty[2].Fault = fmt.Errorf("simd: PE 3 %w", ErrNotResident)
	l = &scriptedLanes{cycles: faulty}
	s = NewSchedule(scriptOptions(4), trigger.Static{X: 0}, false)
	err := s.Run(context.Background(), l)
	if !errors.Is(err, ErrNotResident) || !strings.Contains(err.Error(), "PE 3 ") || !strings.Contains(err.Error(), "cycle 3") {
		t.Fatalf("run returned %v, want ErrNotResident naming PE 3 and cycle 3", err)
	}
	if s.Stats.Cycles != 3 || s.Stats.W != 9 || s.Stats.BalanceCheck() != 0 {
		t.Errorf("the faulted cycle must be booked: %+v", s.Stats)
	}
	if last := l.calls[len(l.calls)-1]; last != "cycle3" {
		t.Errorf("the run went on to %q after the fault", last)
	}
}

// firstGoalCycle returns the first cycle of the exhaustive 6-queens run
// whose prefix holds a goal, found by running ever longer MaxCycles
// prefixes.
func firstGoalCycle(t *testing.T, label string, opts Options) int {
	t.Helper()
	for k := 1; ; k++ {
		sch, err := ParseScheme[queens.Node](label)
		if err != nil {
			t.Fatal(err)
		}
		opts.MaxCycles = k
		st, err := Run[queens.Node](queens.New(6), sch, opts)
		if st.Goals > 0 {
			return k
		}
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s: the %d-cycle prefix ended with %v and no goal", label, k, err)
		}
	}
}

// TestStopAtFirstGoalInsideInit: a goal found during the initial
// distribution ends the run at that cycle boundary, as
// Options.StopAtFirstGoal documents — not one full cycle later, which is
// what the run loop and its distributed copy both did while the init loop
// was a loop of its own.
func TestStopAtFirstGoalInsideInit(t *testing.T) {
	for _, label := range []string{"GP-S0.90", "GP-DK"} {
		t.Run(label, func(t *testing.T) {
			// InitThreshold 1 on a machine far wider than the tree keeps
			// the whole run inside the initial distribution.
			opts := Options{P: 4096, InitThreshold: 1}
			first := firstGoalCycle(t, label, opts)
			sch, err := ParseScheme[queens.Node](label)
			if err != nil {
				t.Fatal(err)
			}
			opts.StopAtFirstGoal = true
			st, err := Run[queens.Node](queens.New(6), sch, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st.Cycles != first || st.Goals == 0 {
				t.Errorf("stopped after cycle %d with %d goals; the first goal is in cycle %d", st.Cycles, st.Goals, first)
			}
			if st.InitCycles != first {
				t.Errorf("%d of the first %d cycles were initial distribution: the goal must fall inside it", st.InitCycles, first)
			}
		})
	}
}
