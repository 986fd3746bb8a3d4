package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/trace"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusCancelled Status = "cancelled"
	StatusTimeout   Status = "timeout"
	StatusExhausted Status = "exhausted" // cycle budget spent; stats are the completed prefix
	StatusFailed    Status = "failed"
)

// Terminal reports whether a status is final: a node's job, and the fleet
// coordinator's record of one, ends in exactly these.
func (s Status) Terminal() bool {
	switch s {
	case StatusDone, StatusCancelled, StatusTimeout, StatusExhausted, StatusFailed:
		return true
	}
	return false
}

// Cancellation causes, distinguished via context.Cause so the worker can
// classify how a run ended.
var (
	errCancelRequested = errors.New("cancelled by client")
	errShutdown        = errors.New("server shutting down")
	// errYield stops a single-node run at a cycle boundary so its worker
	// drives the rest distributed (handleSteal).  It cancels the run's own
	// child context, never the job's, so DELETE still reaches the job.
	errYield = errors.New("yielded to a distributed run")
)

// job is one search request as a node's history keeps it: a record that
// answers the job document, its event stream and its trace, plus while the
// job is live the run that only a queued or running job needs.  It is the
// node's Job.  spec, key, tenant and hit are set before the job is
// published and never change.  id is written once, by the store's Add
// under its lock: a new job reaches the queue before the store, but the
// queue, the worker and the spool (keyed by the cache key) never read
// its id, and its submitter reads it only after Add.  The rest is under
// mu.
type job struct {
	id     string
	spec   JobSpec // canonical
	key    string  // cache key of spec
	tenant string  // accounting tenant (X-Tenant header, or "default")

	// hit is the document template of the cached result a cache hit was
	// answered from, nil for any other job.
	hit *hitDoc

	mu           sync.Mutex
	status       Status
	stats        metrics.Stats
	errMsg       string
	cacheHit     bool
	resumed      bool
	resumedCycle int
	trace        *trace.Trace
	submitted    time.Time
	started      time.Time
	finished     time.Time

	// dist is the distributed run a fleet steal made of the job, set
	// while it drives the job and kept once it ended it; nil for a job
	// that ran on one node, or whose distributed run lost a peer.
	dist *distRun

	// events is what a terminal job keeps of its event log
	// (EventLog.freeze), empty while run holds the live one.
	events eventSet

	// run is nil once the job is terminal: finish drops it, and a cache
	// hit, born terminal, never has one.  Only finish clears it, and only
	// the job's worker calls finish, so the worker reads run without mu;
	// every other goroutine reads it under mu.
	run *jobRun
}

// jobRun is what a queued or running job needs and a finished one does
// not.
type jobRun struct {
	// ctx and cancel are created at submission (derived from the
	// server's root context), so a job can be cancelled with a cause
	// while still queued; the worker layers the deadline on top.
	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{} // closed by finish

	// events is the job's live progress stream (status transitions,
	// engine progress ticks, checkpoint writes), feeding the SSE
	// endpoint.
	events EventLog

	// resume holds the checkpoint the next run restores: the spooled one a
	// restarted server recovered, an imported one, or the last assembled
	// checkpoint of a distributed run that lost a peer; nil for a fresh
	// run.  Set before the job is queued or by its worker, read only by
	// the worker.
	resume []byte

	cost  float64 // predicted work in scheduler cost units (1 = no estimate)
	quota bool    // holds a slot of its tenant's quota; set by the queue's push

	// yield stops the single-node run in progress at its next cycle
	// boundary, nil while none is; steal is the distributed run a fleet
	// steal asked it to yield to.  Both are under the job's mu.
	yield context.CancelCauseFunc
	steal *stealOrder
}

// distRun is what a job document says of a distributed run: its layout,
// and once it ended the stack halves that crossed nodes and the transfers
// that stayed within a shard.
type distRun struct {
	shards         []ShardInfo
	donations      int
	localTransfers int
}

// closedDone is the done channel of every terminal job, and of every
// flight answered from the cache: closed once, never closed again.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// setResumed records that the run restored a spooled checkpoint taken at
// the given cycle.
func (j *job) setResumed(cycle int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.resumed = true
	j.resumedCycle = cycle
}

// requestCancel cancels a live job's context (queued or running) with
// cause on behalf of tenant.  It reports false, cancelling nothing, when
// the job is live and tenant is not its own: a tenant that joined another
// tenant's flight holds that job's id, not its run.  A terminal job has
// nothing to cancel, and any tenant may read its final state.
func (j *job) requestCancel(tenant string, cause error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.run == nil:
		return true
	case tenant != j.tenant:
		return false
	}
	j.run.cancel(cause)
	return true
}

// finish is the job's terminal transition, made exactly once: it records
// the outcome, keeps the frozen live log in the record, whose terminal
// event eventsSince rebuilds, releases the run context (the server's root
// context holds every live child until it is cancelled), closes done and
// drops the run.
func (j *job) finish(status Status, stats metrics.Stats, tr *trace.Trace, errMsg string, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := j.run
	if r == nil {
		return false
	}
	j.status = status
	j.stats = stats
	j.trace = tr
	j.errMsg = errMsg
	j.finished = now
	j.events = r.events.freeze()
	j.run = nil
	r.cancel(nil)
	close(r.done)
	return true
}

// Done returns a channel closed once the job is terminal.
func (j *job) Done() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.run == nil {
		return closedDone
	}
	return j.run.done
}

// terminalEvent is the job's terminal event but for its Seq, rebuilt from
// the record.  The caller holds j.mu.
func (j *job) terminalEvent() JobEvent {
	return JobEvent{Type: EventStatus, Status: j.status, Error: j.errMsg, CacheHit: j.cacheHit, Terminal: true}.withStats(j.stats)
}

// eventsSince returns the job's events with Seq > after, from the live
// log while the job runs and from the record once it is terminal, plus a
// channel closed on the next append or at finish: nil once the job is
// terminal.  It reads the live log under j.mu, so it never sees a log
// that finish froze without the terminal event the record rebuilds.
func (j *job) eventsSince(after int64) ([]JobEvent, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if r := j.run; r != nil {
		return r.events.Since(after)
	}
	terminal := j.terminalEvent()
	terminal.Seq = j.events.newest() + 1
	return j.events.since(after, []JobEvent{terminal}), nil
}

// view is an immutable snapshot for handlers.
type jobView struct {
	ID           string
	Spec         JobSpec
	Key          string
	Tenant       string
	Status       Status
	Stats        metrics.Stats
	ErrMsg       string
	CacheHit     bool
	Resumed      bool
	ResumedCycle int
	Trace        *trace.Trace
	Submitted    time.Time
	Started      time.Time
	Finished     time.Time

	Shards         []ShardInfo
	Donations      int
	LocalTransfers int
}

func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:           j.id,
		Spec:         j.spec,
		Key:          j.key,
		Tenant:       j.tenant,
		Status:       j.status,
		Stats:        j.stats,
		ErrMsg:       j.errMsg,
		CacheHit:     j.cacheHit,
		Resumed:      j.resumed,
		ResumedCycle: j.resumedCycle,
		Trace:        j.trace,
		Submitted:    j.submitted,
		Started:      j.started,
		Finished:     j.finished,
	}
	if d := j.dist; d != nil {
		v.Shards, v.Donations, v.LocalTransfers = d.shards, d.donations, d.localTransfers
	}
	return v
}

// setYield installs the yield of the single-node run about to start, or
// clears it (nil) once that run returned, handing back the steal it was
// asked to yield to, if any.
func (j *job) setYield(yield context.CancelCauseFunc) *stealOrder {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := j.run
	o := r.steal
	r.yield, r.steal = yield, nil
	return o
}

// offerSteal gives o to the job's worker and yields its single-node run;
// when there is no such run to yield, it says why instead.
func (j *job) offerSteal(o *stealOrder) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := j.run
	switch {
	case r == nil || r.yield == nil:
		return fmt.Sprintf("job is %s, not in a single-node run", j.status)
	case r.steal != nil:
		return "a steal of this job is already under way"
	}
	r.steal = o
	r.yield(errYield)
	return ""
}

// setDist records the distributed run now driving the job, nil when it
// lost a peer and the job runs single-node again.
func (j *job) setDist(d *distRun) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.dist = d
}

// ID returns the job id ("j1", ...).
func (j *job) ID() string { return j.id }

// Key returns the canonical spec cache key, the single-flight collapse
// key.
func (j *job) Key() string { return j.key }

// Status returns the job's current lifecycle state.
func (j *job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Terminal reports whether the job's status is final.
func (j *job) Terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.Terminal()
}

// CacheHit reports whether the job was answered from the result cache.
func (j *job) CacheHit() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cacheHit
}

// ResponseBytes renders the job document exactly as the HTTP layer
// writes it (indented JSON plus trailing newline), so callers can fan the
// same bytes out to any number of subscribers.  A cache hit's document is
// appended from its cached result's template (hitdoc.go).
func (j *job) ResponseBytes() ([]byte, error) {
	if j.hit != nil {
		return j.hit.render(j.view())
	}
	return marshalDoc(renderJob(j.view()))
}

// JobStore is a bounded job history that names the jobs it stores: a
// node's *job ("j1", ...) or the fleet coordinator's record of a routed
// job ("f1", ...).  It evicts the oldest *terminal* jobs beyond the
// history cap; queued and running jobs are never evicted.
//
// An id is the prefix and n, the count of adds, minted under the lock, so
// order[head:] holds the stored (n, job) slots sorted by n, and
// order[:head] the empty slots evictions left.  Evicting the job at
// order[i] moves the jobs older than it (all live, since it is the oldest
// terminal one) up a slot, so the hole is always at the head and a job
// added after the last eviction sits next-n slots from the end: Get tries
// that slot, and binary-searches for the live jobs an eviction shifted.
// An add costs O(1) amortized plus those live jobs, which a node's queue
// size and worker count bound.  A full slice is compacted in place when
// its dead head is at least half of it, and regrown to 2·stored+1
// otherwise, so it stays within 2·history+1 slots.
type JobStore[J Job] struct {
	mu      sync.Mutex
	prefix  string
	order   []storeSlot[J]
	head    int
	next    int64 // n of the newest job, 0 before the first add
	history int
}

type storeSlot[J Job] struct {
	n   int64
	job J
}

// NewJobStore returns an empty store that names its jobs prefix+"1",
// prefix+"2", ... and keeps at least history of them.
func NewJobStore[J Job](prefix string, history int) *JobStore[J] {
	return &JobStore[J]{prefix: prefix, history: max(history, 1)}
}

// Add stores j under the next id, written to *id under the store's lock
// (so no Get finds j before it is named), and evicts the oldest terminal
// jobs past the history.  It returns how far the store is still past the
// history, which is non-zero only when every job it holds is live.
func (s *JobStore[J]) Add(j J, id *string) (over int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) == cap(s.order) {
		stored := s.order[s.head:]
		if 2*s.head >= len(s.order) {
			clear(s.order[copy(s.order, stored):])
			s.order = s.order[:len(stored)]
		} else {
			s.order = append(make([]storeSlot[J], 0, 2*len(stored)+1), stored...)
		}
		s.head = 0
	}
	s.next++
	var b [24]byte
	*id = string(strconv.AppendInt(append(b[:0], s.prefix...), s.next, 10))
	s.order = append(s.order, storeSlot[J]{s.next, j})
	over = len(s.order) - s.head - s.history
	for i := s.head; over > 0 && i < len(s.order); i++ {
		if !s.order[i].job.Terminal() {
			continue
		}
		copy(s.order[s.head+1:i+1], s.order[s.head:i])
		s.order[s.head] = storeSlot[J]{}
		s.head++
		over--
	}
	return max(over, 0)
}

// Get returns the job stored under id.  Only an id's own spelling finds
// its job: ParseInt reads "05" and "+5" as 5, and TrimPrefix passes an id
// without the prefix, so a hit must also match the job's ID.
func (s *JobStore[J]) Get(id string) (J, bool) {
	var none J
	n, err := strconv.ParseInt(strings.TrimPrefix(id, s.prefix), 10, 64)
	if err != nil {
		return none, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	stored := s.order[s.head:]
	i, ok := len(stored)-1-int(s.next-n), true
	if i < 0 || i >= len(stored) || stored[i].n != n {
		i, ok = slices.BinarySearchFunc(stored, n, func(sl storeSlot[J], n int64) int { return cmp.Compare(sl.n, n) })
	}
	if !ok || stored[i].job.ID() != id {
		return none, false
	}
	return stored[i].job, true
}

// All returns the stored jobs in submission order, which is id order.
func (s *JobStore[J]) All() []J {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]J, 0, len(s.order)-s.head)
	for _, sl := range s.order[s.head:] {
		out = append(out, sl.job)
	}
	return out
}
