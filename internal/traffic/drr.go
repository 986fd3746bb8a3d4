package traffic

import (
	"slices"
	"sync"

	"simdtree/internal/server"
)

// DRR is a deficit-round-robin fair scheduler over tenants, implementing
// server.Scheduler.  Each backlogged tenant holds a FIFO of its own jobs
// and a deficit counter; a rotating cursor visits tenants in arrival
// order, granting Quantum cost units per visit and dispatching head jobs
// while the credit lasts.
//
// With unit costs and the default quantum the dispatch order is an exact
// rotation — the paper's GP invariant (§4.1: the global pointer never
// re-picks a PE before wrapping past every candidate) with tenants in the
// role of the PEs: no backlogged tenant is served twice before every
// other backlogged tenant is served once.  With estimated costs the same
// rotation holds in cost units: a tenant whose head job is expensive
// banks credit across visits instead of being starved or favoured.
type DRR struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int
	quantum  float64
	size     int
	closed   bool

	tenants map[string]*tenantQueue
	ring    []string // backlogged tenants in arrival order
	cur     int      // rotation cursor into ring
	granted bool     // the tenant at cur has received its quantum for this visit

	served map[string]int64 // jobs dispatched per tenant, for /metrics; see servedKey
}

// maxServedTenants caps the tenants DRR.Stats counts by name.  X-Tenant is
// client-chosen, so a label per request must not grow the node; past the
// cap a new label's dispatches count under otherTenants, which no valid
// X-Tenant can spell (it holds a space).
const (
	maxServedTenants = 1024
	otherTenants     = "other tenants"
)

type tenantQueue struct {
	items   []server.SchedItem
	deficit float64
}

// NewDRR returns a DRR scheduler bounding the total backlog (all tenants
// together) at capacity items, with the given per-visit quantum in cost
// units.  A quantum <= 0 selects 1, which with unit-cost jobs yields the
// strict one-job-per-tenant-per-rotation schedule the tests pin down.
func NewDRR(capacity int, quantum float64) *DRR {
	if capacity < 1 {
		capacity = 1
	}
	if quantum <= 0 {
		quantum = 1
	}
	d := &DRR{
		capacity: capacity,
		quantum:  quantum,
		tenants:  make(map[string]*tenantQueue),
		served:   make(map[string]int64),
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// Push admits one item under its tenant, waking one blocked worker.
func (d *DRR) Push(item server.SchedItem) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.size >= d.capacity {
		return false
	}
	q := d.tenants[item.Tenant]
	if q == nil {
		q = &tenantQueue{}
		d.tenants[item.Tenant] = q
	}
	if len(q.items) == 0 {
		// (Re)joining tenants enter at the ring's tail with zero credit:
		// they wait for the cursor like everyone else.
		d.ring = append(d.ring, item.Tenant)
	}
	q.items = append(q.items, item)
	d.size++
	d.cond.Signal()
	return true
}

// Next blocks until a job is dispatchable or the scheduler is closed and
// drained.
//
//lint:allow ctxflow scheduler lifetime is bounded by Close; pool workers own the blocking wait
func (d *DRR) Next() (server.SchedItem, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.size > 0 {
			return d.popLocked(), true
		}
		if d.closed {
			return server.SchedItem{}, false
		}
		d.cond.Wait()
	}
}

// popLocked runs the DRR visit loop.  size > 0 implies the ring holds at
// least one tenant, and every tenant in the ring has queued work (a
// tenant retires as its last job is dispatched), so the loop terminates:
// every pass either dispatches or advances the cursor while growing some
// deficit by a full quantum.
func (d *DRR) popLocked() server.SchedItem {
	for {
		t := d.ring[d.cur]
		q := d.tenants[t]
		if !d.granted {
			q.deficit += d.quantum
			d.granted = true
		}
		head := q.items[0]
		if q.deficit >= head.Cost {
			// Delete zeroes the vacated last slot, which would otherwise
			// pin the dispatched job past its history.
			q.items = slices.Delete(q.items, 0, 1)
			q.deficit -= head.Cost
			d.size--
			d.served[d.servedKey(t)]++
			if len(q.items) == 0 {
				d.retireLocked(t)
			}
			return head
		}
		// The head exceeds the remaining credit: the visit ends, the
		// credit carries over, the cursor moves on.
		d.advanceLocked()
	}
}

// retireLocked drops the drained tenant t at the cursor from the ring and
// forgets its queue, deficit included — an idle tenant must not bank
// credit, and a label seen once must not stay — and the cursor now points
// at the successor, which has not been visited yet.
func (d *DRR) retireLocked(t string) {
	delete(d.tenants, t)
	d.ring = slices.Delete(d.ring, d.cur, d.cur+1)
	if d.cur >= len(d.ring) {
		d.cur = 0
	}
	d.granted = false
}

// servedKey is the served counter t's dispatches go under: t itself while
// it is counted or there is room, otherTenants past maxServedTenants.
func (d *DRR) servedKey(t string) string {
	if _, ok := d.served[t]; ok || len(d.served) < maxServedTenants {
		return t
	}
	return otherTenants
}

func (d *DRR) advanceLocked() {
	d.cur = (d.cur + 1) % len(d.ring)
	d.granted = false
}

// Close stops admission; Next drains the backlog then reports ok=false.
func (d *DRR) Close() {
	d.mu.Lock()
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
}

// Depth is the total backlog across tenants.
func (d *DRR) Depth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}

// TenantStat is one tenant's scheduler view for /metrics.
type TenantStat struct {
	Served  int64 `json:"served_total"`
	Backlog int   `json:"backlog"`
}

// Stats returns the per-tenant dispatch counters and current backlogs,
// keyed by tenant, for every tenant the scheduler has ever served or is
// currently holding.
func (d *DRR) Stats() map[string]TenantStat {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]TenantStat, len(d.served))
	for t, n := range d.served {
		out[t] = TenantStat{Served: n}
	}
	for t, q := range d.tenants {
		s := out[t]
		s.Backlog = len(q.items)
		out[t] = s
	}
	return out
}
