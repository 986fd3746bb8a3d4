package server

// The admission/dispatch policy between submission and the worker pool is
// pluggable: the stock server uses a bounded FIFO (exactly the original
// global queue), while the traffic layer (internal/traffic) installs a
// per-tenant deficit-round-robin scheduler through Config.Scheduler.  The
// paper's GP invariant — one rotating pointer, no PE picked twice before
// every candidate was offered the work once (§4.1) — reappears here one
// level up, with tenants in the role of the PEs.

// SchedItem is one queued job as the scheduler sees it: the routing facts
// a policy may use (tenant, predicted cost) plus an opaque payload only
// the server reads back.  Schedulers must return items unmodified.
type SchedItem struct {
	// Tenant is the submitting tenant (the X-Tenant header, or "default").
	Tenant string
	// Cost is the predicted work of the job in scheduler cost units
	// (node expansions, normalised by the caller); 1 when no estimate
	// was attached.
	Cost float64

	job *job
}

// Scheduler is the pluggable admission queue.  Push and Close are always
// serialized by the server (both run under the submission lock); Next is
// called concurrently by every pool worker and must block until an item
// is available or the scheduler is closed and drained.
type Scheduler interface {
	// Push admits one item; false means the queue is full and the
	// submission is rejected with 429.
	Push(item SchedItem) bool
	// Next blocks for the next item to execute.  After Close it keeps
	// returning the remaining backlog (graceful drain) and reports
	// ok=false once empty.
	Next() (SchedItem, bool)
	// Close stops admission.  Next drains the backlog, then returns
	// ok=false to every waiter.
	Close()
	// Depth is the current backlog size across all tenants.
	Depth() int
}

// fifoScheduler is the default policy: one bounded channel, strict global
// submission order, tenant-blind — the pre-traffic-layer behaviour.
type fifoScheduler struct {
	ch chan SchedItem
}

// NewFIFOScheduler returns the stock bounded FIFO policy with the given
// capacity.
func NewFIFOScheduler(capacity int) Scheduler {
	if capacity < 1 {
		capacity = 1
	}
	return &fifoScheduler{ch: make(chan SchedItem, capacity)}
}

func (f *fifoScheduler) Push(item SchedItem) bool {
	select {
	case f.ch <- item:
		return true
	default:
		return false
	}
}

//lint:allow ctxflow scheduler lifetime is bounded by Close; pool workers own the blocking wait
func (f *fifoScheduler) Next() (SchedItem, bool) {
	it, ok := <-f.ch
	return it, ok
}

func (f *fifoScheduler) Close() { close(f.ch) }

func (f *fifoScheduler) Depth() int { return len(f.ch) }
