package server

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"
)

// unit builds a unit-cost job for tenant t, the queue's view of one.
func unit(t string) *job { return costed(t, 1) }

// costed builds a queued job for tenant t of the given cost.
func costed(t string, cost float64) *job {
	return &job{tenant: t, run: &jobRun{cost: cost}}
}

// TestDRRRotationInvariant pins the scheduler's GP-rotation property
// (the paper's §4.1 invariant with tenants in the role of the PEs): with
// unit costs and a unit quantum, no backlogged tenant is dispatched
// twice before every other backlogged tenant has been dispatched once.
// The backlog is deliberately skewed — a fair-share scheduler must not
// let the heavy tenant's depth buy it extra turns.
func TestDRRRotationInvariant(t *testing.T) {
	d := NewDRR(128)
	backlog := map[string]int{"heavy": 9, "medium": 5, "light": 2}
	// Interleave pushes so arrival order does not accidentally encode
	// the fair schedule.
	for i := 0; i < 9; i++ {
		for tenant, n := range map[string]int{"heavy": 9, "medium": 5, "light": 2} {
			if i < n {
				if d.push(unit(tenant), false) != admitted {
					t.Fatalf("push %s/%d refused", tenant, i)
				}
			}
		}
	}
	total := 0
	for _, n := range backlog {
		total += n
	}

	window := map[string]bool{}
	resetWindow := func() {
		for tenant, n := range backlog {
			if n > 0 {
				window[tenant] = true
			}
		}
	}
	resetWindow()
	for i := 0; i < total; i++ {
		j := d.next()
		if j == nil {
			t.Fatalf("dispatch %d: scheduler closed early", i)
		}
		if !window[j.tenant] {
			t.Fatalf("dispatch %d: tenant %q served twice before the rotation wrapped past every backlogged tenant", i, j.tenant)
		}
		delete(window, j.tenant)
		backlog[j.tenant]--
		if len(window) == 0 {
			resetWindow()
		}
	}
	if got := d.depth(); got != 0 {
		t.Fatalf("backlog %d after draining, want 0", got)
	}
	st := d.Stats()
	if st["heavy"].Served != 9 || st["medium"].Served != 5 || st["light"].Served != 2 {
		t.Errorf("served counters %+v, want heavy=9 medium=5 light=2", st)
	}
}

// TestDRRDeficitCarry pins the weighted half of the policy: a tenant
// whose head job costs more than one quantum banks credit across visits
// instead of being starved (it still dispatches) or favoured (the cheap
// tenant gets proportionally more turns first).
func TestDRRDeficitCarry(t *testing.T) {
	d := NewDRR(16)
	if d.push(costed("wide", 3), false) != admitted {
		t.Fatal("push wide refused")
	}
	for i := 0; i < 3; i++ {
		if d.push(unit("cheap"), false) != admitted {
			t.Fatal("push cheap refused")
		}
	}
	var order []string
	for i := 0; i < 4; i++ {
		j := d.next()
		if j == nil {
			t.Fatalf("dispatch %d: scheduler closed early", i)
		}
		order = append(order, j.tenant)
	}
	// Visits grant one credit each: cheap dispatches on every visit,
	// wide accumulates 1, 2, 3 and dispatches on its third visit —
	// after two cheap jobs, before the third.
	want := []string{"cheap", "cheap", "wide", "cheap"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

// TestDRRCapacityCloseDrain covers admission bounds and the drain
// contract: close stops push immediately but next hands out the backlog
// before reporting closed.
func TestDRRCapacityCloseDrain(t *testing.T) {
	d := NewDRR(2)
	if d.push(unit("a"), false) != admitted || d.push(unit("b"), false) != admitted {
		t.Fatal("pushes within capacity refused")
	}
	if d.push(unit("c"), false) == admitted {
		t.Fatal("push beyond capacity accepted")
	}
	d.close()
	if d.push(unit("a"), false) == admitted {
		t.Fatal("push after close accepted")
	}
	for i := 0; i < 2; i++ {
		if d.next() == nil {
			t.Fatalf("drain dispatch %d: closed before the backlog emptied", i)
		}
	}
	if d.next() != nil {
		t.Fatal("next returned a job from an empty closed scheduler")
	}
}

// TestDRRConcurrentDispatch runs producers and consumers together under
// the race detector and checks that no item is lost or duplicated: every
// tenant's pushes are dispatched exactly once.
func TestDRRConcurrentDispatch(t *testing.T) {
	const tenants, perTenant = 4, 50
	d := NewDRR(tenants * perTenant)
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				if d.push(unit(tenant), false) != admitted {
					t.Errorf("push %s/%d refused below capacity", tenant, i)
					return
				}
			}
		}(fmt.Sprintf("t%d", ti))
	}
	got := make(map[string]int)
	var mu sync.Mutex
	var cg sync.WaitGroup
	for w := 0; w < 3; w++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				j := d.next()
				if j == nil {
					return
				}
				mu.Lock()
				got[j.tenant]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Producers done and everything fits in capacity: close drains the
	// backlog through next before reporting closed.
	d.close()
	cg.Wait()
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("t%d", ti)
		if got[tenant] != perTenant {
			t.Errorf("tenant %s dispatched %d jobs, want %d", tenant, got[tenant], perTenant)
		}
	}
}

// TestDRRForgetsDrainedTenants pins what a DRR keeps of the work it has
// dispatched: no queue slot still holds a dispatched item, a drained
// tenant's queue is gone, and past maxServedTenants labels a new label's
// dispatches count under otherTenants, so a client choosing a fresh
// X-Tenant per request grows the counters by one key, not one per label.
func TestDRRForgetsDrainedTenants(t *testing.T) {
	d := NewDRR(8)
	for i := 0; i < 3; i++ {
		d.push(unit("a"), false)
	}
	q := d.tenants["a"]
	if d.next() == nil {
		t.Fatal("scheduler closed early")
	}
	for i, j := range q.jobs[len(q.jobs):cap(q.jobs)] {
		if j != nil {
			t.Errorf("vacated slot %d still holds %+v", len(q.jobs)+i, j)
		}
	}
	for d.depth() > 0 {
		d.next()
	}
	if len(d.tenants) != 0 || len(d.ring) != 0 {
		t.Errorf("drained scheduler keeps queues %v, ring %v", d.tenants, d.ring)
	}

	const extra = 10 // labels past the cap; "a" holds one of its keys
	for i := 0; i < maxServedTenants-1+extra; i++ {
		d.push(unit(fmt.Sprintf("label-%d", i)), false)
		d.next()
	}
	d.push(unit("a"), false) // counted before the cap filled
	d.next()
	st := d.Stats()
	if len(st) != maxServedTenants+1 || st[otherTenants].Served != extra || st["a"].Served != 4 {
		t.Errorf("%d tenants counted, %q served %d, a served %d; want %d, %d, 4",
			len(st), otherTenants, st[otherTenants].Served, st["a"].Served, maxServedTenants+1, extra)
	}
	if len(d.tenants) != 0 {
		t.Errorf("%d queues kept after every label drained", len(d.tenants))
	}
	if _, err := tenantFrom(&http.Request{Header: http.Header{TenantHeader: {otherTenants}}}); err == nil {
		t.Errorf("%q is a valid X-Tenant; the overflow key must not be", otherTenants)
	}
}

// TestDRRSingleTenantIsFIFO holds the DRR to push order when one tenant
// submits everything, whatever the costs across the range the frontend's
// cost estimate clamps to, [1/16, 16] (TestCostUnitsClamp): a
// single-tenant node dispatches exactly as a FIFO would.  Pushes land both
// on a backlog and on an empty queue, so the tenant also leaves and
// rejoins the rotation.
func TestDRRSingleTenantIsFIFO(t *testing.T) {
	const n = 64
	// Distinct costs, so the cost names the item: geometric from the
	// clamp's floor to its ceiling, in a shuffled push order.
	const lo, hi = 1.0 / 16, 16.0
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = lo * math.Pow(hi/lo, float64(i)/(n-1))
	}
	rand.New(rand.NewSource(5)).Shuffle(n, func(i, j int) { costs[i], costs[j] = costs[j], costs[i] })

	d := NewDRR(n)
	var pushed, popped []float64
	push := func(k int) {
		for ; k > 0; k-- {
			j := costed("solo", costs[len(pushed)])
			if d.push(j, false) != admitted {
				t.Fatalf("push %d refused", len(pushed))
			}
			pushed = append(pushed, j.run.cost)
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			j := d.next()
			if j == nil {
				t.Fatalf("pop %d: queue closed", len(popped))
			}
			popped = append(popped, j.run.cost)
		}
	}
	push(40)
	pop(25)
	push(10) // joins a backlog whose head may hold carried credit
	pop(25)  // the queue empties: the tenant leaves the rotation
	push(14)
	pop(14)

	if len(popped) != n {
		t.Fatalf("dispatched %d of %d", len(popped), n)
	}
	for i := range pushed {
		if popped[i] != pushed[i] {
			t.Fatalf("dispatch %d: cost %g, pushed %g", i, popped[i], pushed[i])
		}
	}
}
