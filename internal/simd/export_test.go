package simd

import (
	"context"

	"simdtree/internal/metrics"
	"simdtree/internal/trigger"
)

// PoolShardMin lets the external tests size a run around the pool cut-over.
const PoolShardMin = poolShardMin

// RunThrough runs m as RunContext does, but over wrap(the machine's own
// lanes): the seam through which the external tests look at the loop's
// calls or change what Held reports.
func RunThrough[S any](ctx context.Context, m *Machine[S], wrap func(Lanes) Lanes) (metrics.Stats, error) {
	m.startPool()
	defer m.stopPool()
	err := m.sched.Run(ctx, wrap(machineLanes[S]{m}))
	return m.sched.Stats, err
}

// Horizon is the batch the loop asks for at a boundary with the ledger l
// and the stack sizes held, under trigger trig on P PEs.
func Horizon(p int, trig trigger.Trigger, l Ledger, held []int32) int {
	s := NewSchedule(Options{P: p}, trig, false)
	s.Ledger = l
	s.Stats.P = p
	return s.horizon(held)
}
