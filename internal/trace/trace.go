// Package trace records per-cycle machine state during a simulated run.
// Figure 8 of the paper plots the number of active processors at each node
// expansion cycle; Figure 1 illustrates the trigger quantities R1 and R2.
// A Trace captures both so the experiment harness can emit the same
// series.
package trace

import "time"

// Event marks a load-balancing phase in the cycle stream.
type Event struct {
	Cycle     int           // expansion cycle after which the phase ran
	Transfers int           // work transfers performed in the phase
	Cost      time.Duration // virtual duration of the phase
	// Donors lists the processors that gave work during the phase; it is
	// populated only when the trace's CaptureDonors flag is set (it costs
	// memory proportional to transfers).  The Appendix A/B validation
	// tests use it to measure V(P) empirically.
	Donors []int
}

// Sample captures the trigger-relevant state after one expansion cycle.
type Sample struct {
	Cycle  int
	Active int           // processors with work (A)
	R1     time.Duration // trigger quantity R1 (scheme-dependent; see Figure 1)
	R2     time.Duration // trigger quantity R2
}

// Trace accumulates samples and events; a nil *Trace is a valid no-op
// recorder, so the engine can be run untraced at zero cost.
type Trace struct {
	Samples []Sample
	Events  []Event
	// CaptureDonors asks the engine to record per-phase donor lists.
	CaptureDonors bool
}

// WantDonors reports whether donor capture is requested; it is nil-safe.
func (t *Trace) WantDonors() bool { return t != nil && t.CaptureDonors }

// Clone returns a deep copy of the trace (donor lists included), so a
// checkpoint can carry the recorded prefix without aliasing the live run.
// It is nil-safe.
func (t *Trace) Clone() *Trace {
	if t == nil {
		return nil
	}
	c := &Trace{CaptureDonors: t.CaptureDonors}
	if t.Samples != nil {
		c.Samples = append([]Sample(nil), t.Samples...)
	}
	if t.Events != nil {
		c.Events = make([]Event, len(t.Events))
		for i, e := range t.Events {
			if e.Donors != nil {
				e.Donors = append([]int(nil), e.Donors...)
			}
			c.Events[i] = e
		}
	}
	return c
}

// RecordCycle appends a per-cycle sample.
func (t *Trace) RecordCycle(s Sample) {
	if t == nil {
		return
	}
	t.Samples = append(t.Samples, s)
}

// RecordPhase appends a load-balancing event.
func (t *Trace) RecordPhase(e Event) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, e)
}

// ActiveSeries returns the active-processor count per expansion cycle, the
// series Figure 8 plots.
func (t *Trace) ActiveSeries() []int {
	if t == nil {
		return nil
	}
	out := make([]int, len(t.Samples))
	for i, s := range t.Samples {
		out[i] = s.Active
	}
	return out
}

// MinActive returns the lowest active count observed and its cycle; it is
// the headline number for the D^P starvation analyses (Section 6.1).
func (t *Trace) MinActive() (active, cycle int) {
	if t == nil || len(t.Samples) == 0 {
		return 0, -1
	}
	active, cycle = t.Samples[0].Active, t.Samples[0].Cycle
	for _, s := range t.Samples[1:] {
		if s.Active < active {
			active, cycle = s.Active, s.Cycle
		}
	}
	return active, cycle
}
