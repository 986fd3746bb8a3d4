package simd

import (
	"testing"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/synthetic"
	"simdtree/internal/trigger"
)

func TestProgressCallback(t *testing.T) {
	var snaps []ProgressInfo
	sch, _ := ParseScheme[synthetic.Node]("GP-S0.85")
	opts := Options{
		P:             64,
		ProgressEvery: 50,
		Progress:      func(p ProgressInfo) { snaps = append(snaps, p) },
	}
	st, err := Run[synthetic.Node](synthetic.New(40000, 3), sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress callbacks fired")
	}
	want := st.Cycles / 50
	if len(snaps) != want {
		t.Errorf("%d callbacks, want %d (every 50 of %d cycles)", len(snaps), want, st.Cycles)
	}
	prev := ProgressInfo{}
	for _, s := range snaps {
		if s.Stats.Cycles <= prev.Stats.Cycles || s.Stats.W < prev.Stats.W || s.Stats.Tpar <= prev.Stats.Tpar {
			t.Fatalf("progress not monotone: %+v after %+v", s, prev)
		}
		if s.Active < 0 || s.Active > 64 {
			t.Fatalf("active out of range: %+v", s)
		}
		prev = s
	}
}

func TestProgressDefaultCadence(t *testing.T) {
	calls := 0
	sch, _ := ParseScheme[synthetic.Node]("GP-S0.85")
	opts := Options{P: 16, Progress: func(ProgressInfo) { calls++ }}
	st, err := Run[synthetic.Node](synthetic.New(5000, 3), sch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := st.Cycles / 1000; calls != want {
		t.Errorf("%d callbacks with default cadence over %d cycles, want %d", calls, st.Cycles, want)
	}
}

// TestProgressCarriesTheTrigger pins IdleOverLP as D^K's equation 4: on
// every tick of a GP-DK run, the ratio reaches 1 exactly when the trigger
// would balance on the same Ledger, and the record's efficiency is the
// Section 3.1 E of its Stats.
func TestProgressCarriesTheTrigger(t *testing.T) {
	sch, _ := ParseScheme[synthetic.Node]("GP-DK")
	fired := 0
	opts := Options{P: 64, ProgressEvery: 1, Progress: func(pi ProgressInfo) {
		st := trigger.State{P: pi.Stats.P, Idle: pi.PhaseIdle, EstLB: pi.EstLB}
		due := pi.IdleOverLP() >= 1
		if due != (trigger.DK{}).ShouldBalance(st) {
			t.Fatalf("cycle %d: IdleOverLP %v but DK.ShouldBalance %v", pi.Stats.Cycles, pi.IdleOverLP(), !due)
		}
		if due {
			fired++
		}
		if e := pi.Stats.Efficiency(); e <= 0 || e > 1 {
			t.Fatalf("cycle %d: efficiency %v outside (0, 1]", pi.Stats.Cycles, e)
		}
	}}
	if _, err := Run[synthetic.Node](synthetic.New(40000, 3), sch, opts); err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Error("D^K never came due on a tick; the comparison proved nothing")
	}
}

func TestIdleOverLP(t *testing.T) {
	for _, c := range []struct {
		l    Ledger
		want float64
	}{
		{Ledger{PhaseIdle: 3 * time.Second, EstLB: time.Second, Stats: metrics.Stats{P: 2}}, 1.5},
		{Ledger{PhaseIdle: time.Second, EstLB: 0, Stats: metrics.Stats{P: 2}}, 0},
		{Ledger{PhaseIdle: time.Second, EstLB: time.Second}, 0},
	} {
		if got := c.l.IdleOverLP(); got != c.want {
			t.Errorf("IdleOverLP(idle %v, L %v, P %d) = %v, want %v", c.l.PhaseIdle, c.l.EstLB, c.l.Stats.P, got, c.want)
		}
	}
}
