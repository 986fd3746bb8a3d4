package simd

import (
	"errors"
	"fmt"

	"simdtree/internal/match"
	"simdtree/internal/search"
	"simdtree/internal/stack"
	"simdtree/internal/trace"
)

// Snapshot is the complete deterministic state of a machine at a cycle
// boundary: everything the remaining schedule depends on, and nothing
// else.  Running to cycle k, snapshotting, restoring into a fresh machine
// and running to the end produces Stats and trace byte-identical to an
// uninterrupted run — the invariant internal/checkpoint's tests enforce
// across every Table 1 scheme.
//
// A Snapshot owns its data: stacks, trace and domain state are deep copies
// decoupled from the machine that produced them.
type Snapshot[S any] struct {
	// Cycle is the number of completed expansion cycles (== Stats.Cycles).
	Cycle int
	// Stacks holds one DFS stack per processing element, level structure
	// preserved: a clone of the machine's arena, every PE fully resident.
	Stacks *stack.Arena[S]
	// MatcherPointer is the GP global pointer (-1 when parked); it is
	// ignored for the stateless nGP matcher.
	MatcherPointer int

	// Ledger is the schedule state of the prefix; its Stats have Cancelled
	// cleared.
	Ledger

	// DomainState is the opaque payload of a search.Stateful domain (the
	// IDA* bounded domain's smallest-pruned-f accumulator); nil for
	// stateless domains.
	DomainState []byte

	// Trace is a deep copy of the per-cycle trace recorded so far; nil
	// when the run is untraced.  Restore preloads the new run's trace
	// with it so the full trace equals an uninterrupted run's.
	Trace *trace.Trace

	// IDA carries the surrounding parallel-IDA* iteration state; it is
	// set only for snapshots taken via RunIDAStar.
	IDA *IDAState
}

// IDAState is the iteration-level state of a parallel IDA* run in flight:
// which cost-bounded iteration the machine snapshot belongs to and the
// iterations already completed.
type IDAState struct {
	// Iteration is the zero-based index of the in-flight iteration.
	Iteration int
	// Bound is the cost bound of the in-flight iteration.
	Bound int
	// Done lists the completed iterations in bound order.
	Done []IterationStat
}

// Snapshot captures the machine state at the current cycle boundary.  It
// must only be called while the machine is quiescent: before RunContext,
// after it returned, or from inside an OnCheckpoint sink.  It returns an
// error when the scheme uses a stateful balancer the snapshot format
// cannot capture (none of the paper's Table 1 schemes do).
func (m *Machine[S]) Snapshot() (*Snapshot[S], error) {
	ptr, err := m.matcherPointer()
	if err != nil {
		return nil, err
	}
	// A memory-bounded machine reabsorbs its evicted levels first, so the
	// snapshot is self-contained and byte-identical to an unbounded run's;
	// the next sweep deterministically re-evicts.
	if err := m.faultAllPEs(); err != nil {
		return nil, err
	}
	snap := &Snapshot[S]{
		Cycle:          m.sched.Stats.Cycles,
		Stacks:         m.arena.Clone(),
		MatcherPointer: ptr,
		Ledger:         m.sched.Ledger,
		Trace:          m.opts.Trace.Clone(),
	}
	snap.Stats.Cancelled = false
	if st, ok := m.d.(search.Stateful); ok {
		snap.DomainState = st.SaveState()
	}
	return snap, nil
}

// RestoreSnapshot replaces the machine state with snap's, deep-copying so
// the snapshot stays valid.  The machine must have been built by
// NewMachine for the same domain, scheme and machine size the snapshot was
// taken under; mismatches that are detectable (processor count, domain
// statefulness) return an error and leave the machine unchanged.  It does
// not look at snap.IDA: a caller that must not continue an IDA* iteration
// under its own bound refuses such a snapshot itself, as a node's runner
// does.
func (m *Machine[S]) RestoreSnapshot(snap *Snapshot[S]) error {
	if snap == nil {
		return errors.New("simd: nil snapshot")
	}
	if snap.Stacks == nil || snap.Stacks.P() != m.opts.P {
		return fmt.Errorf("simd: snapshot stacks do not match the machine's P=%d", m.opts.P)
	}
	if snap.Stats.P != m.opts.P {
		return fmt.Errorf("simd: snapshot stats are for P=%d, machine has P=%d", snap.Stats.P, m.opts.P)
	}
	st, stateful := m.d.(search.Stateful)
	if snap.DomainState != nil && !stateful {
		return errors.New("simd: snapshot carries domain state but the domain is stateless")
	}
	if _, err := m.matcherPointer(); err != nil {
		return err
	}
	if snap.DomainState != nil {
		if err := st.RestoreState(snap.DomainState); err != nil {
			return err
		}
	}
	for pe := 0; pe < m.opts.P; pe++ {
		m.arena.CopyPE(pe, snap.Stacks, pe)
	}
	m.sched.Ledger = snap.Ledger
	m.sched.Stats.Cancelled = false
	m.setMatcherPointer(snap.MatcherPointer)
	if m.opts.Trace != nil && snap.Trace != nil {
		pre := snap.Trace.Clone()
		m.opts.Trace.Samples = pre.Samples
		m.opts.Trace.Events = pre.Events
	}
	// The snapshot replaced the machine state wholesale, so any segments
	// the residency manager still holds describe stacks that no longer
	// exist; drop them (the next sweep re-evicts deterministically).
	m.spillErr = nil
	if m.spiller != nil {
		if err := m.spiller.Reset(); err != nil {
			return err
		}
	}
	return nil
}

// matcherPointer extracts the cross-phase matcher state.  The paper's
// schemes all use MatchBalancer, whose only state is the GP pointer; a
// foreign balancer that carries state of its own (it exposes Reset) cannot
// be captured and poisons the snapshot.
func (m *Machine[S]) matcherPointer() (int, error) {
	if mb, ok := m.sch.Balancer.(*MatchBalancer[S]); ok {
		if gp, ok := mb.Matcher.(*match.GP); ok {
			return gp.Pointer(), nil
		}
		return -1, nil
	}
	if _, stateful := m.sch.Balancer.(interface{ Reset() }); stateful {
		return 0, fmt.Errorf("simd: balancer %s carries state a snapshot cannot capture", m.sch.Balancer.Name())
	}
	return -1, nil
}

// setMatcherPointer restores the GP pointer; it is a no-op for stateless
// matchers and balancers.
func (m *Machine[S]) setMatcherPointer(p int) {
	if mb, ok := m.sch.Balancer.(*MatchBalancer[S]); ok {
		if gp, ok := mb.Matcher.(*match.GP); ok {
			gp.SetPointer(p)
		}
	}
}
