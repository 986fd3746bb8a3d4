package server

import (
	"slices"
	"sync"
)

// DRR is the node's one queue between submission and the worker pool: a
// deficit-round-robin fair scheduler over tenants that also decides, under
// its single lock, whether a job is admitted at all.  Each backlogged
// tenant holds a FIFO of its own jobs and a deficit counter; a rotating
// cursor visits tenants in arrival order, granting one cost unit per
// visit and dispatching head jobs while the credit lasts.
//
// With unit costs the dispatch order is an exact
// rotation — the paper's GP invariant (§4.1: the global pointer never
// re-picks a PE before wrapping past every candidate) with tenants in the
// role of the PEs: no backlogged tenant is served twice before every
// other backlogged tenant is served once.  With estimated costs the same
// rotation holds in cost units: a tenant whose head job is expensive
// banks credit across visits instead of being starved or favoured.  A
// single tenant is dispatched in push order, whatever the costs.
type DRR struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int
	quota    int // jobs one tenant may hold queued or running (Config.TenantQuota); 0 is unlimited
	size     int
	closed   bool

	tenants map[string]*tenantQueue
	ring    []string // backlogged tenants in arrival order
	cur     int      // rotation cursor into ring
	granted bool     // the tenant at cur has received this visit's cost unit

	held   map[string]int   // quota slots held per tenant (jobRun.quota)
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
	jobs    []*job
	deficit float64
}

// verdict is push's decision on one job.
type verdict uint8

const (
	admitted      verdict = iota
	refusedClosed         // the node is shutting down: 503
	refusedQuota          // the tenant holds all its quota slots: 429
	refusedFull           // the backlog is at capacity: 429
)

// NewDRR returns a DRR bounding the total backlog (all tenants together)
// at capacity jobs.  Each visit grants a tenant one cost unit, which with
// unit-cost jobs yields the strict one-job-per-tenant-per-rotation
// schedule the tests pin down.
func NewDRR(capacity int) *DRR {
	if capacity < 1 {
		capacity = 1
	}
	d := &DRR{
		capacity: capacity,
		tenants:  make(map[string]*tenantQueue),
		held:     make(map[string]int),
		served:   make(map[string]int64),
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// push admits j under its tenant, waking one blocked worker, unless the
// queue is closed, j's tenant is at its quota or the backlog is full, in
// that order.  Only a submission (quota set) counts against the quota;
// once admitted it holds one of its tenant's slots until release.
func (d *DRR) push(j *job, quota bool) verdict {
	d.mu.Lock()
	defer d.mu.Unlock()
	quota = quota && d.quota > 0
	switch {
	case d.closed:
		return refusedClosed
	case quota && d.held[j.tenant] >= d.quota:
		return refusedQuota
	case d.size >= d.capacity:
		return refusedFull
	}
	if j.run.quota = quota; quota {
		d.held[j.tenant]++
	}
	q := d.tenants[j.tenant]
	if q == nil {
		q = &tenantQueue{}
		d.tenants[j.tenant] = q
	}
	if len(q.jobs) == 0 {
		// (Re)joining tenants enter at the ring's tail with zero credit:
		// they wait for the cursor like everyone else.
		d.ring = append(d.ring, j.tenant)
	}
	q.jobs = append(q.jobs, j)
	d.size++
	d.cond.Signal()
	return admitted
}

// release returns a finished job's quota slot to tenant.
func (d *DRR) release(tenant string) {
	d.mu.Lock()
	if d.held[tenant]--; d.held[tenant] <= 0 {
		delete(d.held, tenant)
	}
	d.mu.Unlock()
}

// next blocks until a job is dispatchable, or returns nil once the queue
// is closed and drained.
func (d *DRR) next() *job {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.size > 0 {
			return d.popLocked()
		}
		if d.closed {
			return nil
		}
		d.cond.Wait()
	}
}

// popLocked runs the DRR visit loop.  size > 0 implies the ring holds at
// least one tenant, and every tenant in the ring has queued work (a
// tenant retires as its last job is dispatched), so the loop terminates:
// every pass either dispatches or advances the cursor while growing some
// deficit by a full cost unit.
func (d *DRR) popLocked() *job {
	for {
		t := d.ring[d.cur]
		q := d.tenants[t]
		if !d.granted {
			q.deficit++
			d.granted = true
		}
		head := q.jobs[0]
		if q.deficit >= head.run.cost {
			// Delete zeroes the vacated last slot, which would otherwise
			// pin the dispatched job past its history.
			q.jobs = slices.Delete(q.jobs, 0, 1)
			q.deficit -= head.run.cost
			d.size--
			d.served[d.servedKey(t)]++
			if len(q.jobs) == 0 {
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

// close stops admission; next drains the backlog then returns nil.
// Closing twice is a no-op.
func (d *DRR) close() {
	d.mu.Lock()
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
}

// draining reports whether close has run.
func (d *DRR) draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// depth is the total backlog across tenants.
func (d *DRR) depth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}

// TenantStat is one tenant's queue view for /metrics.
type TenantStat struct {
	Served  int64 `json:"served_total"`
	Backlog int   `json:"backlog"`
}

// Stats returns the per-tenant dispatch counters and current backlogs,
// keyed by tenant, for every tenant the queue has ever served or is
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
		s.Backlog = len(q.jobs)
		out[t] = s
	}
	return out
}
