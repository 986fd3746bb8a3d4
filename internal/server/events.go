package server

import (
	"cmp"
	"slices"
	"sync"

	"simdtree/internal/metrics"
	"simdtree/internal/simd"
)

// Per-job progress events feed the SSE endpoint (GET /v1/jobs/{id}/events,
// handleEvents).  Three sources produce them, all already present in the
// job lifecycle: status transitions (queued → running → terminal), the
// engine's periodic Progress snapshots, and the spool's checkpoint
// writes.  Events are held in a bounded per-job log with
// monotonically increasing sequence numbers, so a client that reconnects
// with Last-Event-ID resumes exactly where its stream broke (best-effort
// once the log has trimmed past that point).  The terminal event freezes
// the log: it is always the last event, and it is always retained.  A
// frozen log keeps only the ticks freezeEvents keeps, so a reader resuming
// a finished job from a dropped tick gets the next kept event.

// Event types.
const (
	EventStatus     = "status"     // lifecycle transition; Status is set
	EventProgress   = "progress"   // periodic engine liveness snapshot
	EventCheckpoint = "checkpoint" // a spooled checkpoint was persisted
)

// JobEvent is one entry of a job's progress stream.  The JSON encoding is
// the SSE data payload.  Its two float32 fields sit in the padding after
// the bools, so a JobEvent stays 120 bytes: a finished service job's
// frozen log of queued, running, last tick and terminal is one 480-byte
// allocation, and a node's history keeps 4096 of them.
type JobEvent struct {
	Seq      int64  `json:"seq"`
	Type     string `json:"type"`
	Status   Status `json:"status,omitempty"`
	Error    string `json:"error,omitempty"`
	Cycle    int    `json:"cycle,omitempty"`
	Active   int    `json:"active,omitempty"`
	W        int64  `json:"w,omitempty"`
	LBPhases int    `json:"lb_phases,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// Efficiency is E = Tcalc/(Tcalc+Tidle+Tlb) of the run so far.
	Efficiency float32 `json:"efficiency,omitempty"`
	// Shard and Shards tag events of a distributed (stolen) run: Shard is
	// the 1-based index of the shard the event describes (so omitempty
	// never drops shard one), Shards the total count.  Single-node runs
	// leave both zero.
	Shard  int `json:"shard,omitempty"`
	Shards int `json:"shards,omitempty"`
	// Terminal marks the final event of the stream; subscribers close
	// after delivering it.
	Terminal bool `json:"terminal,omitempty"`
	// IdleOverLP is D^K's w_idle/(L·P) in the current search phase
	// (simd.Ledger.IdleOverLP); progress events only.
	IdleOverLP float32 `json:"idle_over_lp,omitempty"`
}

// withStats fills ev's Section 3.1 fields from st: the one field list the
// progress ticks and the terminal status events share.
func (ev JobEvent) withStats(st metrics.Stats) JobEvent {
	ev.Cycle, ev.W, ev.LBPhases, ev.Efficiency = st.Cycles, st.W, st.LBPhases, float32(st.Efficiency())
	return ev
}

// progress is the one progress-event builder, the engine's Progress hook
// on a single-node run and the steal driver's on a distributed one: it
// appends the aggregate tick, then, when shardActive is non-nil, one
// event per shard carrying that shard's share of the active processors.
func (r *jobRun) progress(pi simd.ProgressInfo, shardActive []int) {
	ev := JobEvent{Type: EventProgress, Active: pi.Active, IdleOverLP: float32(pi.IdleOverLP()), Shards: len(shardActive)}.withStats(pi.Stats)
	r.events.Append(ev)
	for i, a := range shardActive {
		r.events.Append(JobEvent{Type: ev.Type, Cycle: ev.Cycle, Active: a, Shard: i + 1, Shards: ev.Shards})
	}
}

// eventLogCap bounds a live job's event log.  Status and checkpoint
// events are sparse; progress events arrive every Config.ProgressEvery
// cycles, and the log drops its oldest tick past the cap, so it covers
// the most recent ~eventLogCap ticks — a reconnecting client older than
// that resumes at the next retained event.  It bounds a running job only:
// the terminal event freezes the log down to a handful of events
// (freezeEvents), so a finished job's history entry does not grow with
// the ticks its run emitted.
const eventLogCap = 1024

// EventLog is a bounded append-only event buffer with sequence numbers
// and edge-triggered wakeups for streaming readers (StreamEvents).  The
// zero value is an empty log whose first event gets sequence 1.
//
// A terminal event freezes the log: freezeEvents cuts its events to what
// a finished job's history entry keeps, in an exact-size slice, and every
// later Append is dropped.  A reader past the terminal event blocks on
// the nil channel Since then returns until its own context or heartbeat,
// as on a channel no Append will close.
type EventLog struct {
	mu     sync.Mutex
	last   int64 // seq of the last event appended (0: none yet)
	events []JobEvent
	wake   chan struct{} // closed by the next Append; made by the first reader to wait for it
	frozen bool
}

// Append assigns the next sequence number to ev, stores it, and wakes
// every blocked reader; a terminal ev freezes the log, and a frozen log
// drops ev.  It is cheap enough to run on the simulation goroutine (the
// engine's Progress contract).
func (l *EventLog) Append(ev JobEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen {
		return
	}
	l.last++
	ev.Seq = l.last
	l.events = append(l.events, ev)
	if len(l.events) > eventLogCap {
		// Past the cap the oldest progress tick goes, so a long run's log
		// keeps its status and checkpoint events for the freeze; a log of
		// those alone drops its oldest event.
		i := max(slices.IndexFunc(l.events, func(ev JobEvent) bool { return ev.Type == EventProgress }), 0)
		l.events = slices.Delete(l.events, i, i+1)
	}
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
	if ev.Terminal {
		l.frozen = true
		l.events = freezeEvents(l.events)
	}
}

// frozenEvents returns the events of a frozen log, nil while it is live.
func (l *EventLog) frozenEvents() []JobEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.frozen {
		return nil
	}
	return l.events
}

// Since returns a copy of the buffered events with Seq > after, plus a
// channel that is closed on the next Append — the reader's blocking edge,
// nil once the log is frozen.
func (l *EventLog) Since(after int64) ([]JobEvent, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.frozen && l.wake == nil {
		l.wake = make(chan struct{})
	}
	return eventsAfter(l.events, after), l.wake
}

// eventsAfter returns a copy of the events of evs, which are in Seq
// order, with Seq > after; nil when there are none.  A frozen log's
// sequence numbers have gaps where freezeEvents dropped ticks, so the
// first event is found by its Seq, not by its offset: a reader resuming
// from a dropped tick gets the next kept event.
func eventsAfter(evs []JobEvent, after int64) []JobEvent {
	i, _ := slices.BinarySearchFunc(evs, after+1, func(ev JobEvent, seq int64) int { return cmp.Compare(ev.Seq, seq) })
	if i == len(evs) {
		return nil
	}
	return slices.Clone(evs[i:])
}

// freezeEvents is the freeze rule, what a terminal event leaves of a
// job's log: every status and checkpoint event, and of the progress
// ticks only the last one, with that tick's per-shard events on a
// distributed run.  Nothing reads the other ticks once the job is over.
// The result is an exact-size slice, evs itself when it already is one.
func freezeEvents(evs []JobEvent) []JobEvent {
	last := -1
	for i, ev := range evs {
		if ev.Type == EventProgress && ev.Shard == 0 {
			last = i
		}
	}
	keep := func(i int) bool {
		ev := evs[i]
		return ev.Type != EventProgress || i == last || i > last && ev.Shard > 0
	}
	n := 0
	for i := range evs {
		if keep(i) {
			n++
		}
	}
	if n == len(evs) && n == cap(evs) {
		return evs
	}
	out := make([]JobEvent, 0, n)
	for i, ev := range evs {
		if keep(i) {
			out = append(out, ev)
		}
	}
	return out
}
