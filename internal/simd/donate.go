package simd

import (
	"fmt"

	"simdtree/internal/stack"
)

// This file is the engine half of the distributed work-stealing subsystem
// (internal/steal): a machine can be driven one lock-step cycle at a time
// by an external coordinator and split a donor's stack into any idle PE
// slot, from which the shard host (steal.NewHost) lifts the donated half as
// wire bytes for a peer machine on another node; the peer decodes them
// straight into the addressed PE of its own arena.  Everything here
// preserves the determinism contract — transfers happen only at cycle
// boundaries, are the exact stack operations of a load-balancing phase
// (Context.splitPairs), and never touch the machine's own schedule
// ledger, which a distributed run keeps on the coordinator.

// StepCycle runs exactly one lock-step node-expansion cycle across all PEs
// and returns its reductions without touching the schedule ledger (stats,
// phase accumulators, virtual clock).  It is the cycle of the machine's own
// run and the shard-side primitive of a distributed one: whoever runs the
// Schedule owns the ledger and the trigger/balance decisions, and because
// those decisions are functions of globally reduced scalars only, stepping
// every shard one cycle at a time reproduces the single-machine schedule
// exactly.
func (m *Machine[S]) StepCycle() CycleInfo {
	var info [1]CycleInfo
	m.stepCycles(info[:])
	return info[0]
}

// stepCycles runs len(infos) cycles and fills infos[j] with cycle j.  Inside
// a batch a PE with no node left gets none, so after a cycle every stack is
// empty exactly when its largest is, and some PE can split exactly when the
// largest holds two; after the last cycle the flag words say it.  A fault is
// booked at the first cycle it happened in.
func (m *Machine[S]) stepCycles(infos []CycleInfo) {
	res := m.expand(len(infos))
	for j, r := range res {
		info := &infos[j]
		info.Active = int(r.Expanded)
		info.Goals = r.Goals
		info.Peak = r.Peak
		info.AllEmpty = r.Peak == 0
		info.AnyDonor = r.Peak >= 2
		info.Fault = nil
		switch {
		case r.NotResident >= 0:
			info.Fault = fmt.Errorf("simd: PE %d %w", r.NotResident, ErrNotResident)
		case r.Truncated:
			info.Fault = fmt.Errorf("simd: %w", ErrExpandTruncated)
		}
	}
	last := &infos[len(infos)-1]
	last.AllEmpty = m.arena.NoWork()
	last.AnyDonor = m.arena.AnySplittable()
}

// Arena exposes the machine's stack storage: for inspection (flag scans,
// serialisation via wire.EncodeArena) at any quiescent point, and at a
// cycle boundary for the shard host's installs — clearing a PE, decoding a
// payload into an idle one (wire.ArenaDecoder).  Mutating it anywhere else
// breaks the determinism contract.
func (m *Machine[S]) Arena() *stack.Arena[S] { return m.arena }

// TransferLocal performs one donor-to-receiver stack transfer between two
// PEs of this machine, using the scheme's splitter exactly like a
// load-balancing phase does, without touching the phase accounting (a
// distributed run accounts on the coordinator).  It returns the number of
// stack nodes moved; a donor that cannot split moves nothing.  The
// receiver must be idle, as the matcher guarantees: a transfer onto a busy
// PE — from == to included, which would move the donor's bottom node to
// its own top — is a different schedule, not a transfer, so it is refused
// with the stacks untouched.
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
	n := m.lbCtx.splitOne(from, to)
	m.arena.SyncBits(from)
	m.arena.SyncBits(to)
	return n, nil
}
