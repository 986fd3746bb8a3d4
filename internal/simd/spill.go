package simd

import "simdtree/internal/stack"

// Spiller is the residency manager of a memory-bounded run
// (internal/spill.Manager implements it).  The engine drives it only
// from sequential code at cycle boundaries — before each expansion cycle
// (Barrier), after each cycle's trigger/balance decision (Sweep), and
// before any operation that needs a PE's whole stack resident
// (FaultAll): bottom removal, stack splits, donation, serialisation.
//
// Every method must be a pure function of the arena state it is handed
// plus the manager's own deterministic bookkeeping: the determinism
// contract extends to residency, so that a run with a budget produces
// schedules, traces and checkpoints byte-identical to an unbounded run.
type Spiller[S any] interface {
	// Barrier restores the newest segment of every PE that has work but
	// no resident nodes, so the coming cycle's pops find the true stack
	// tops.  Called at cycle boundaries before the cycle.
	Barrier(a *stack.Arena[S]) error
	// Sweep evicts cold bottom levels until the resident set fits the
	// budget.  Called at cycle boundaries after trigger/balance.
	Sweep(a *stack.Arena[S]) error
	// FaultAll restores every evicted segment of PE pe.
	FaultAll(a *stack.Arena[S], pe int) error
	// Reset discards every segment; the machine state was replaced
	// wholesale (snapshot restore) and the segments describe nothing.
	Reset() error
}

// SetSpiller registers the residency manager a positive Options.MemBudget
// requires.  It must be called before RunContext, at a cycle boundary.
// The spiller also hooks the load-balancing transfer path: a donor PE is
// made fully resident before its stack is split, because bottom-node
// donation reads the true bottom of the stack.
func (m *Machine[S]) SetSpiller(sp Spiller[S]) {
	m.spiller = sp
	m.lbCtx.held = nil // a memory-bounded machine expands one cycle a call
	if sp == nil {
		m.lbCtx.faultDonor = nil
		return
	}
	m.lbCtx.faultDonor = func(pe int) {
		if m.arena.Ghost(pe) == 0 {
			return
		}
		if err := sp.FaultAll(m.arena, pe); err != nil && m.spillErr == nil {
			m.spillErr = err
		}
	}
}

// spillBarrier runs the pre-cycle fault barrier and surfaces any fault
// error latched inside the previous balancing phase.
func (m *Machine[S]) spillBarrier() error {
	if m.spillErr != nil {
		return m.spillErr
	}
	if m.spiller == nil {
		return nil
	}
	return m.spiller.Barrier(m.arena)
}

// spillSweep enforces the memory budget at the end of a loop iteration.
func (m *Machine[S]) spillSweep() error {
	if m.spillErr != nil {
		return m.spillErr
	}
	if m.spiller == nil {
		return nil
	}
	return m.spiller.Sweep(m.arena)
}

// faultFull makes PE pe fully resident — the precondition for bottom
// removal, splits, donation and serialisation.  A machine without a
// spiller is always fully resident.
func (m *Machine[S]) faultFull(pe int) error {
	if m.spiller == nil {
		return nil
	}
	return m.spiller.FaultAll(m.arena, pe)
}

// faultAllPEs makes the whole arena resident, the snapshot precondition:
// checkpoints reabsorb spilled levels so they stay self-contained and
// byte-identical to an unbounded run's.
func (m *Machine[S]) faultAllPEs() error {
	if m.spiller == nil {
		return nil
	}
	for pe := 0; pe < m.opts.P; pe++ {
		if err := m.spiller.FaultAll(m.arena, pe); err != nil {
			return err
		}
	}
	return nil
}
