package traffic

import (
	"math"
	"math/rand"
	"testing"

	"simdtree/internal/server"
)

// TestDRRSingleTenantIsFIFO holds the DRR to the stock FIFO when one
// tenant submits everything: whatever the costs across the CostUnits clamp
// range [1/16, 16], both dispatch in push order.  A single-tenant workload
// therefore cannot tell the two queues apart, so the serving binary needs
// no switch back to the FIFO.  Pushes land both on a backlog and on an
// empty queue, so the tenant also leaves and rejoins the rotation.
func TestDRRSingleTenantIsFIFO(t *testing.T) {
	const n = 64
	// Distinct costs, so the cost names the item: geometric from the
	// clamp's floor to its ceiling, in a shuffled push order.
	lo, hi := Estimate{}.CostUnits(), Estimate{W: math.MaxFloat64}.CostUnits()
	if lo != 1.0/16 || hi != 16 {
		t.Fatalf("CostUnits clamps to [%g, %g], want [1/16, 16]", lo, hi)
	}
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = lo * math.Pow(hi/lo, float64(i)/(n-1))
	}
	rand.New(rand.NewSource(5)).Shuffle(n, func(i, j int) { costs[i], costs[j] = costs[j], costs[i] })

	drr, fifo := NewDRR(n, 1), server.NewFIFOScheduler(n)
	var pushed, fromDRR, fromFIFO []float64
	push := func(k int) {
		for ; k > 0; k-- {
			item := server.SchedItem{Tenant: "solo", Cost: costs[len(pushed)]}
			if !drr.Push(item) || !fifo.Push(item) {
				t.Fatalf("push %d refused", len(pushed))
			}
			pushed = append(pushed, item.Cost)
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			a, okA := drr.Next()
			b, okB := fifo.Next()
			if !okA || !okB {
				t.Fatalf("pop %d: drr ok=%v fifo ok=%v", len(fromDRR), okA, okB)
			}
			fromDRR = append(fromDRR, a.Cost)
			fromFIFO = append(fromFIFO, b.Cost)
		}
	}
	push(40)
	pop(25)
	push(10) // joins a backlog whose head may hold carried credit
	pop(25)  // the queue empties: the tenant leaves the rotation
	push(14)
	pop(14)

	if len(fromDRR) != n {
		t.Fatalf("dispatched %d of %d", len(fromDRR), n)
	}
	for i := range pushed {
		if fromDRR[i] != fromFIFO[i] || fromFIFO[i] != pushed[i] {
			t.Fatalf("dispatch %d: drr cost %g, fifo cost %g, pushed %g", i, fromDRR[i], fromFIFO[i], pushed[i])
		}
	}
}
