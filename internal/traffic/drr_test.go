package traffic

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"simdtree/internal/server"
)

// unit builds a unit-cost SchedItem for tenant t.
func unit(t string) server.SchedItem {
	return server.SchedItem{Tenant: t, Cost: 1}
}

// TestDRRRotationInvariant pins the scheduler's GP-rotation property
// (the paper's §4.1 invariant with tenants in the role of the PEs): with
// unit costs and a unit quantum, no backlogged tenant is dispatched
// twice before every other backlogged tenant has been dispatched once.
// The backlog is deliberately skewed — a fair-share scheduler must not
// let the heavy tenant's depth buy it extra turns.
func TestDRRRotationInvariant(t *testing.T) {
	d := NewDRR(128, 1)
	backlog := map[string]int{"heavy": 9, "medium": 5, "light": 2}
	// Interleave pushes so arrival order does not accidentally encode
	// the fair schedule.
	for i := 0; i < 9; i++ {
		for tenant, n := range map[string]int{"heavy": 9, "medium": 5, "light": 2} {
			if i < n {
				if !d.Push(unit(tenant)) {
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
		it, ok := d.Next()
		if !ok {
			t.Fatalf("dispatch %d: scheduler closed early", i)
		}
		if !window[it.Tenant] {
			t.Fatalf("dispatch %d: tenant %q served twice before the rotation wrapped past every backlogged tenant", i, it.Tenant)
		}
		delete(window, it.Tenant)
		backlog[it.Tenant]--
		if len(window) == 0 {
			resetWindow()
		}
	}
	if got := d.Depth(); got != 0 {
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
	d := NewDRR(16, 1)
	if !d.Push(server.SchedItem{Tenant: "wide", Cost: 3}) {
		t.Fatal("push wide refused")
	}
	for i := 0; i < 3; i++ {
		if !d.Push(unit("cheap")) {
			t.Fatal("push cheap refused")
		}
	}
	var order []string
	for i := 0; i < 4; i++ {
		it, ok := d.Next()
		if !ok {
			t.Fatalf("dispatch %d: scheduler closed early", i)
		}
		order = append(order, it.Tenant)
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
// contract: Close stops Push immediately but Next hands out the backlog
// before reporting closed.
func TestDRRCapacityCloseDrain(t *testing.T) {
	d := NewDRR(2, 1)
	if !d.Push(unit("a")) || !d.Push(unit("b")) {
		t.Fatal("pushes within capacity refused")
	}
	if d.Push(unit("c")) {
		t.Fatal("push beyond capacity accepted")
	}
	d.Close()
	if d.Push(unit("a")) {
		t.Fatal("push after Close accepted")
	}
	for i := 0; i < 2; i++ {
		if _, ok := d.Next(); !ok {
			t.Fatalf("drain dispatch %d: closed before the backlog emptied", i)
		}
	}
	if _, ok := d.Next(); ok {
		t.Fatal("Next returned an item from an empty closed scheduler")
	}
}

// TestDRRConcurrentDispatch runs producers and consumers together under
// the race detector and checks that no item is lost or duplicated: every
// tenant's pushes are dispatched exactly once.
func TestDRRConcurrentDispatch(t *testing.T) {
	const tenants, perTenant = 4, 50
	d := NewDRR(tenants*perTenant, 1)
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				if !d.Push(unit(tenant)) {
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
				it, ok := d.Next()
				if !ok {
					return
				}
				mu.Lock()
				got[it.Tenant]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Producers done and everything fits in capacity: Close drains the
	// backlog through Next before reporting closed.
	d.Close()
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
	d := NewDRR(8, 1)
	for i := 0; i < 3; i++ {
		d.Push(unit("a"))
	}
	q := d.tenants["a"]
	if _, ok := d.Next(); !ok {
		t.Fatal("scheduler closed early")
	}
	for i, it := range q.items[len(q.items):cap(q.items)] {
		if it != (server.SchedItem{}) {
			t.Errorf("vacated slot %d still holds %+v", len(q.items)+i, it)
		}
	}
	for d.Depth() > 0 {
		d.Next()
	}
	if len(d.tenants) != 0 || len(d.ring) != 0 {
		t.Errorf("drained scheduler keeps queues %v, ring %v", d.tenants, d.ring)
	}

	const extra = 10 // labels past the cap; "a" holds one of its keys
	for i := 0; i < maxServedTenants-1+extra; i++ {
		d.Push(unit(fmt.Sprintf("label-%d", i)))
		d.Next()
	}
	d.Push(unit("a")) // counted before the cap filled
	d.Next()
	st := d.Stats()
	if len(st) != maxServedTenants+1 || st[otherTenants].Served != extra || st["a"].Served != 4 {
		t.Errorf("%d tenants counted, %q served %d, a served %d; want %d, %d, 4",
			len(st), otherTenants, st[otherTenants].Served, st["a"].Served, maxServedTenants+1, extra)
	}
	if len(d.tenants) != 0 {
		t.Errorf("%d queues kept after every label drained", len(d.tenants))
	}
	if _, err := server.TenantFrom(&http.Request{Header: http.Header{server.TenantHeader: {otherTenants}}}); err == nil {
		t.Errorf("%q is a valid X-Tenant; the overflow key must not be", otherTenants)
	}
}
