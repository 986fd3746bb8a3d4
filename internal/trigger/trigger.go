// Package trigger implements the mechanisms that decide, after every node
// expansion cycle, whether the machine should leave the search phase and
// perform a load-balancing phase (Section 2 of the paper):
//
//   - S^x — static triggering: balance as soon as the fraction of active
//     processors falls to x (equation 1).
//   - D^P — the dynamic trigger of Powley, Ferguson and Korf: balance when
//     the work done this search phase, spread over the elapsed time plus the
//     projected balancing cost, matches the active count:
//     w / (t + L) >= A (equation 2).  Section 6.1 shows it can starve.
//   - D^K — the paper's new dynamic trigger: balance when the idle time
//     accumulated this search phase reaches the projected cost of the next
//     balancing phase over the whole machine: w_idle >= L*P (equation 4).
//     Its overheads are at most twice the optimal static trigger's
//     (Section 6.2).
//
// Triggers are pure predicates over the per-cycle State the engine
// assembles; the engine owns the bookkeeping (and its virtual cost).
package trigger

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// State is the globally reduced information available to a trigger at the
// end of a node expansion cycle.  All durations are virtual time.
type State struct {
	P      int // machine size
	Active int // A: processors that expanded a node this cycle

	// Quantities accumulated since the current search phase began (they
	// reset after every load-balancing phase):
	Cycles  int           // node expansion cycles this phase
	Elapsed time.Duration // t: wall time since the phase began
	Work    time.Duration // w: processor-seconds of node expansion
	Idle    time.Duration // w_idle: processor-seconds spent idling

	// EstLB is L, the projected duration of the next load-balancing
	// phase, approximated by the cost of the previous one.
	EstLB time.Duration
}

// Trigger decides when to leave the search phase.
type Trigger interface {
	// Name identifies the trigger in reports, e.g. "S0.85", "DP", "DK".
	Name() string
	// ShouldBalance reports whether a load-balancing phase should start.
	ShouldBalance(s State) bool
	// Reset clears any cross-run state.
	Reset()
}

// Static is the S^x triggering scheme with threshold X in [0, 1]: trigger
// as soon as A <= X*P.
type Static struct {
	X float64
}

// Name implements Trigger.
func (t Static) Name() string { return fmt.Sprintf("S%.2f", t.X) }

// Reset implements Trigger.
func (t Static) Reset() {}

// ShouldBalance implements Trigger (equation 1: A <= x*P).
func (t Static) ShouldBalance(s State) bool {
	return float64(s.Active) <= t.X*float64(s.P)
}

// DP is the dynamic triggering scheme of Powley, Ferguson and Korf
// (equation 2): trigger when w/(t+L) >= A.  The comparison is done in the
// rearranged form w >= A*(t+L) to stay in integer arithmetic.
type DP struct{}

// Name implements Trigger.
func (DP) Name() string { return "DP" }

// Reset implements Trigger.
func (DP) Reset() {}

// ShouldBalance implements Trigger.
func (DP) ShouldBalance(s State) bool {
	return s.Work >= time.Duration(s.Active)*(s.Elapsed+s.EstLB)
}

// DK is the paper's dynamic triggering scheme (equation 4): trigger when
// w_idle >= L*P.
type DK struct{}

// Name implements Trigger.
func (DK) Name() string { return "DK" }

// Reset implements Trigger.
func (DK) Reset() {}

// ShouldBalance implements Trigger.
func (DK) ShouldBalance(s State) bool {
	return s.Idle >= time.Duration(s.P)*s.EstLB
}

// DKGamma generalises D^K with an aggressiveness factor (an extension
// beyond the paper): trigger when w_idle >= Gamma * L * P.  Gamma = 1 is
// the paper's D^K; smaller values balance earlier (more phases, less
// idling), larger values tolerate more idling per phase.  The ablation
// benchmarks sweep Gamma to show the paper's choice sits at the flat
// region of the tradeoff.
type DKGamma struct {
	Gamma float64
}

// Name implements Trigger.
func (t DKGamma) Name() string { return fmt.Sprintf("DK%.2f", t.Gamma) }

// Reset implements Trigger.
func (t DKGamma) Reset() {}

// ShouldBalance implements Trigger.
func (t DKGamma) ShouldBalance(s State) bool {
	return float64(s.Idle) >= t.Gamma*float64(s.P)*float64(s.EstLB)
}

// AnyIdle triggers as soon as a single processor runs out of work; it is
// the triggering condition of the FESS and FEGS baselines of Mahanti and
// Daniels and of Frye and Myczkowski's nearest-neighbour scheme (Section
// 8).
type AnyIdle struct{}

// Name implements Trigger.
func (AnyIdle) Name() string { return "anyidle" }

// Reset implements Trigger.
func (AnyIdle) Reset() {}

// ShouldBalance implements Trigger.
func (AnyIdle) ShouldBalance(s State) bool { return s.Active < s.P }

// Always triggers after every node expansion cycle.  No built-in scheme
// uses it; a scheme label names it, as in GP-always.
type Always struct{}

// Name implements Trigger.
func (Always) Name() string { return "always" }

// Reset implements Trigger.
func (Always) Reset() {}

// ShouldBalance implements Trigger.
func (Always) ShouldBalance(State) bool { return true }

// Parse builds a trigger from its report name: "S<x>" (e.g. "S0.85"),
// "DP", "DK", "anyidle" or "always".
func Parse(name string) (Trigger, error) {
	switch {
	case name == "DP":
		return DP{}, nil
	case name == "DK":
		return DK{}, nil
	case strings.HasPrefix(name, "DK"):
		g, err := strconv.ParseFloat(name[2:], 64)
		if err != nil || g <= 0 {
			return nil, fmt.Errorf("trigger: bad DK gamma in %q", name)
		}
		return DKGamma{Gamma: g}, nil
	case name == "anyidle":
		return AnyIdle{}, nil
	case name == "always":
		return Always{}, nil
	case strings.HasPrefix(name, "S"):
		x, err := strconv.ParseFloat(name[1:], 64)
		if err != nil || x < 0 || x > 1 {
			return nil, fmt.Errorf("trigger: bad static threshold in %q", name)
		}
		return Static{X: x}, nil
	}
	return nil, fmt.Errorf("trigger: unknown trigger %q", name)
}
