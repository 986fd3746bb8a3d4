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

// heldLanes is a Lanes that reports only the stack sizes it was built with,
// and counts the calls.
type heldLanes struct {
	Lanes
	held  []int32
	reads *int
}

func (l heldLanes) Held() []int32 {
	*l.reads++
	return l.held
}

// Horizon is the batch the loop asks for at a boundary with the ledger l
// and the stack sizes held, under trigger trig on P PEs.
func Horizon(p int, trig trigger.Trigger, l Ledger, held []int32) int {
	k, _ := HorizonBusy(p, trig, l, held, p)
	return k
}

// HorizonBusy is Horizon at a boundary where at most busy PEs hold work; it
// also reports whether the loop read the stack sizes.
func HorizonBusy(p int, trig trigger.Trigger, l Ledger, held []int32, busy int) (k int, read bool) {
	s := NewSchedule(Options{P: p}, trig, false)
	s.Ledger = l
	s.Stats.P = p
	var reads int
	k = s.horizon(heldLanes{held: held, reads: &reads}, busy)
	return k, reads > 0
}

// MachineLanes returns the Lanes RunContext runs m over.
func MachineLanes[S any](m *Machine[S]) Lanes { return machineLanes[S]{m} }
