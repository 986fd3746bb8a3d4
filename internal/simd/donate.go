package simd

import (
	"fmt"

	"simdtree/internal/stack"
)

// This file is the engine half of the distributed work-stealing subsystem
// (internal/steal): a machine can be driven one lock-step cycle at a time
// by an external coordinator, donate split stack halves to a peer machine
// on another node, and absorb donated halves into idle PEs.  Everything
// here preserves the determinism contract — donations and absorptions
// happen only at cycle boundaries, mirror the exact stack operations of a
// local transfer (Context.transferNodes), and never touch the machine's
// own schedule ledger, which a distributed run keeps on the coordinator.

// StepCycle runs exactly one lock-step node-expansion cycle across all PEs
// and returns its reductions without touching the schedule ledger (stats,
// phase accumulators, virtual clock).  It is the cycle of the machine's own
// run and the shard-side primitive of a distributed one: whoever runs the
// Schedule owns the ledger and the trigger/balance decisions, and because
// those decisions are functions of globally reduced scalars only, stepping
// every shard one cycle at a time reproduces the single-machine schedule
// exactly.
func (m *Machine[S]) StepCycle() CycleInfo {
	var info CycleInfo
	m.stepCycle(&info)
	return info
}

// stepCycle is StepCycle into the caller's CycleInfo, field by field.
func (m *Machine[S]) stepCycle(info *CycleInfo) {
	res := m.expand()
	info.Active = int(res.Expanded)
	info.Goals = res.Goals
	info.Peak = res.Peak
	info.AllEmpty = m.done()
	info.AnyDonor = m.anyDonor()
	info.Fault = nil
	if res.NotResident >= 0 {
		info.Fault = fmt.Errorf("simd: PE %d %w", res.NotResident, ErrNotResident)
	}
}

// Status reports the cycle-boundary flags of an idle machine: whether all
// stacks are empty and whether any PE could donate.  A freshly installed
// shard reads it before its first driven cycle.
func (m *Machine[S]) Status() (allEmpty, anyDonor bool) {
	return m.done(), m.anyDonor()
}

// Arena exposes the machine's structure-of-arrays stack storage for
// read-only inspection (flag scans, serialisation via wire.EncodeArena).
// Mutating it outside a cycle boundary breaks the determinism contract;
// use InstallStack, TransferLocal, Donate and Absorb for sanctioned
// mutation.
func (m *Machine[S]) Arena() *stack.Arena[S] { return m.arena }

// StackAt returns a copy of PE pe's stack, materialised from the arena —
// the Stack-typed inspection surface.  Mutating the copy never affects
// the machine; callers that need the live flags or bytes without the copy
// use Arena.  On a memory-bounded machine the PE is made fully resident
// first; a fault error is latched and surfaced at the next cycle boundary.
func (m *Machine[S]) StackAt(pe int) *stack.Stack[S] {
	if err := m.faultFull(pe); err != nil && m.spillErr == nil {
		m.spillErr = err
	}
	return m.arena.MaterializeStack(pe)
}

// InstallStack replaces PE pe's contents with a copy of s (nil clears the
// PE).  It is the shard-construction primitive: a driven shard machine is
// built at full P and then has its [lo, hi) range installed from decoded
// payloads and everything else cleared.  Only valid at a cycle boundary.
func (m *Machine[S]) InstallStack(pe int, s *stack.Stack[S]) error {
	if pe < 0 || pe >= m.opts.P {
		return fmt.Errorf("simd: install PE %d out of range [0, %d)", pe, m.opts.P)
	}
	m.arena.InstallFromStack(pe, s)
	return nil
}

// TransferLocal performs one donor-to-receiver stack transfer between two
// PEs of this machine, using the scheme's splitter exactly like a
// load-balancing phase does, without touching the phase accounting (a
// distributed run accounts on the coordinator).  It returns the number of
// stack nodes moved; a donor that cannot split moves nothing.  The
// receiver must be idle, as the matcher guarantees and Absorb demands: a
// transfer onto a busy PE — from == to included, which would move the
// donor's bottom node to its own top — is a different schedule, not a
// transfer, so it is refused with the stacks untouched.
func (m *Machine[S]) TransferLocal(from, to int) (int, error) {
	if from < 0 || from >= m.opts.P || to < 0 || to >= m.opts.P {
		return 0, fmt.Errorf("simd: transfer %d->%d out of range [0, %d)", from, to, m.opts.P)
	}
	if !m.arena.Empty(to) {
		return 0, fmt.Errorf("simd: transfer target PE %d is not idle (%d nodes)", to, m.arena.Size(to))
	}
	if err := m.faultFull(from); err != nil {
		return 0, err
	}
	n := m.lbCtx.transferNodes(from, to)
	m.arena.SyncBits(from)
	m.arena.SyncBits(to)
	return n, nil
}

// Donation is one split stack half in flight between two PEs that may
// live on different machines.  The coordinator mints the ID; donations of
// one distributed run are totally ordered by it, which keeps replays
// byte-identical.
type Donation[S any] struct {
	// ID orders the donation within its distributed run.
	ID uint64
	// From and To are global PE indices (donor and receiver).
	From, To int
	// Stack holds the donated levels; the donation owns it.
	Stack *stack.Stack[S]
}

// Donate splits PE from's stack with the scheme's splitter and returns the
// donated half as a Donation addressed to PE to, leaving the donor's
// remainder in place — the cross-machine analogue of the donor side of
// Context.Transfer.  The split is the local transfer itself: it runs
// inside the arena into slot to, which is empty on the donor machine
// because a shard holds no work outside its own PE range, and the slot is
// then lifted out as the donation.  An out-of-range or occupied target is
// an error (TransferLocal's) and leaves the donor untouched.  A donor that cannot split
// returns an empty donation (Stack.Size() == 0) and no error.  Only valid
// at a cycle boundary.
func (m *Machine[S]) Donate(id uint64, from, to int) (Donation[S], error) {
	if _, err := m.TransferLocal(from, to); err != nil {
		return Donation[S]{}, err
	}
	d := Donation[S]{ID: id, From: from, To: to, Stack: m.arena.MaterializeStack(to)}
	m.arena.Clear(to)
	return d, nil
}

// Absorb installs a donation into the addressed PE, which must be idle —
// the receiver side of a cross-machine transfer.  The install performs the
// exact stack operation a local transfer would (the split half's levels
// pushed above the top), so a distributed schedule stays byte-identical to
// the single-machine one.  It returns the number of stack nodes absorbed.
// Only valid at a cycle boundary.
func (m *Machine[S]) Absorb(d Donation[S]) (int, error) {
	if d.To < 0 || d.To >= m.opts.P {
		return 0, fmt.Errorf("simd: absorb PE %d out of range [0, %d)", d.To, m.opts.P)
	}
	if d.Stack == nil || d.Stack.Size() == 0 {
		return 0, nil
	}
	if !m.arena.Empty(d.To) {
		return 0, fmt.Errorf("simd: absorb target PE %d is not idle (%d nodes)", d.To, m.arena.Size(d.To))
	}
	m.absorbInstall(d.To, d.Stack)
	return d.Stack.Size(), nil
}

// absorbInstall is the allocation-sensitive tail of Absorb: the level copy
// into the receiver's arena window, identical to the local-transfer
// install.
//
//lint:hotpath
func (m *Machine[S]) absorbInstall(to int, s *stack.Stack[S]) {
	m.arena.AppendFromStack(to, s)
}
