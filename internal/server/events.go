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
// frozen log keeps only what freeze keeps and rebuilds the rest on read,
// so a reader resuming a finished job from a dropped tick gets the next
// kept event.

// Event types.
const (
	EventStatus     = "status"     // lifecycle transition; Status is set
	EventProgress   = "progress"   // periodic engine liveness snapshot
	EventCheckpoint = "checkpoint" // a spooled checkpoint was persisted
)

// JobEvent is one entry of a job's progress stream.  The JSON encoding is
// the SSE data payload.  Its two float32 fields sit in the padding after
// the bools, so a JobEvent stays 120 bytes: all a finished service job's
// record keeps of its log is its last tick, one 128-byte allocation, and
// a node's history keeps 4096 of them.
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
// the terminal event freezes the log down to what the record cannot
// rebuild (freeze), so a finished job's history entry does not grow with
// the ticks its run emitted.
const eventLogCap = 1024

// EventLog is a bounded append-only event buffer with sequence numbers
// and edge-triggered wakeups for streaming readers (StreamEvents).  The
// zero value is an empty log whose first event gets sequence 1.
//
// A terminal event freezes the log: freeze cuts its events to what a
// finished job's record keeps, and every later Append is dropped.  A
// reader past the terminal event blocks on the nil channel Since then
// returns until its own context or heartbeat, as on a channel no Append
// will close.
type EventLog struct {
	mu     sync.Mutex
	last   int64         // seq of the last event appended (0: none yet)
	events []JobEvent    // the live events; nil once frozen
	wake   chan struct{} // closed by the next Append; made by the first reader to wait for it
	frozen *sealedLog    // set by the terminal Append
}

// sealedLog is a frozen EventLog: what freeze kept, whether the log held
// the plain running event, and the terminal event, which a job's record
// rebuilds from its own fields instead.
type sealedLog struct {
	log      frozenLog
	running  bool
	terminal JobEvent
}

// Append assigns the next sequence number to ev, stores it, and wakes
// every blocked reader; a terminal ev freezes the log, and a frozen log
// drops ev.  It is cheap enough to run on the simulation goroutine (the
// engine's Progress contract).
func (l *EventLog) Append(ev JobEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen != nil {
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
		log, running := freeze(l.events)
		l.frozen = &sealedLog{log: log, running: running, terminal: ev}
		l.events = nil
	}
}

// frozenLog returns what the freeze kept of a frozen log.
func (l *EventLog) frozenLog() frozenLog {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frozen.log
}

// Since returns a copy of the buffered events with Seq > after, plus a
// channel that is closed on the next Append — the reader's blocking edge,
// nil once the log is frozen.
func (l *EventLog) Since(after int64) ([]JobEvent, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if f := l.frozen; f != nil {
		return f.log.since(after, f.running, f.terminal), nil
	}
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return eventsAfter(l.events, after), l.wake
}

// eventsAfter returns a copy of the events of evs, which are in Seq
// order, with Seq > after; nil when there are none.  A live log's
// sequence numbers have gaps where it dropped ticks past its cap, so the
// first event is found by its Seq, not by its offset.
func eventsAfter(evs []JobEvent, after int64) []JobEvent {
	i, _ := slices.BinarySearchFunc(evs, after+1, func(ev JobEvent, seq int64) int { return cmp.Compare(ev.Seq, seq) })
	if i == len(evs) {
		return nil
	}
	return slices.Clone(evs[i:])
}

// The events a frozen log rebuilds instead of keeping: a job's queued
// event is its first, and a job that started has its running event next.
var (
	queuedEvent  = JobEvent{Seq: 1, Type: EventStatus, Status: StatusQueued}
	runningEvent = JobEvent{Seq: 2, Type: EventStatus, Status: StatusRunning}
)

// frozenLog is what a terminal job's record keeps of its event log: only
// what the record cannot rebuild.  A frozen log's events are
//
//   - the queued event at seq 1, and the running event at seq 2 on a job
//     that started, rebuilt unless the live log had trimmed them;
//   - plain checkpoint events, kept as (seq, cycle) marks;
//   - kept verbatim: the last progress tick with its per-shard events on
//     a distributed run, and every other status or checkpoint event (a
//     steal's running event with its Shards, an aborted steal's with its
//     Error, a distributed run's checkpoints);
//   - the terminal event at seq last, rebuilt from the record's status,
//     error, stats and cache-hit flag (job.terminalEvent).
//
// Nothing reads the other ticks once the job is over.  A cache hit's log
// is its terminal event alone, at seq 1: it keeps nothing.
type frozenLog struct {
	kept []JobEvent
	more *frozenMarks // nil when there are no marks and the lifecycle was not trimmed
	last int64        // the terminal event's seq; 0 while the log is live
}

// frozenMarks is the part of a frozen log that only a spooled run's or a
// trimmed one's has.
type frozenMarks struct {
	marks []checkpointMark
	// first is the lowest seq a rebuilt queued or running event may have
	// when the live log's oldest event was not the queued one: the live
	// log had trimmed it (and the running event, when first > 2).
	first int64
}

// checkpointMark is a plain checkpoint event, which sets no field but
// its cycle.
type checkpointMark struct {
	seq   int64
	cycle int
}

// freeze is the freeze rule: what a frozen log keeps of evs, a live log
// whose last event is the terminal one, and whether evs held the running
// event the log rebuilds at seq 2.  The kept events and the marks are
// exact-size slices.
func freeze(evs []JobEvent) (f frozenLog, running bool) {
	f.last = evs[len(evs)-1].Seq
	evs = evs[:len(evs)-1]
	first := int64(1)
	if len(evs) > 0 && evs[0] != queuedEvent {
		first = max(evs[0].Seq, 2)
	}
	tick := -1
	for i, ev := range evs {
		if ev.Type == EventProgress && ev.Shard == 0 {
			tick = i
		}
	}
	const (
		dropped  = iota // a tick the log drops, or an event it rebuilds
		marked          // a plain checkpoint
		verbatim        // an event it keeps as it is
	)
	class := func(i int, ev JobEvent) int {
		switch {
		case ev == queuedEvent || ev == runningEvent:
			return dropped
		case ev.Type == EventProgress:
			if i == tick || i > tick && ev.Shard > 0 {
				return verbatim
			}
			return dropped
		case ev == JobEvent{Seq: ev.Seq, Type: EventCheckpoint, Cycle: ev.Cycle}:
			return marked
		}
		return verbatim
	}
	var n [3]int
	for i, ev := range evs {
		n[class(i, ev)]++
	}
	var marks []checkpointMark
	if n[marked] > 0 {
		marks = make([]checkpointMark, 0, n[marked])
	}
	if n[verbatim] > 0 {
		f.kept = make([]JobEvent, 0, n[verbatim])
	}
	for i, ev := range evs {
		switch class(i, ev) {
		case dropped:
			running = running || ev == runningEvent
		case marked:
			marks = append(marks, checkpointMark{ev.Seq, ev.Cycle})
		case verbatim:
			f.kept = append(f.kept, ev)
		}
	}
	if marks != nil || first != 1 {
		f.more = &frozenMarks{marks: marks, first: first}
	}
	return f, running
}

// since rebuilds the frozen log's events with Seq > after, in Seq order;
// nil when there are none.  running says whether the log rebuilds the
// running event, terminal is the terminal event but for its Seq.
func (f frozenLog) since(after int64, running bool, terminal JobEvent) []JobEvent {
	if after >= f.last {
		return nil
	}
	first := int64(1)
	var marks []checkpointMark
	if f.more != nil {
		first, marks = f.more.first, f.more.marks
	}
	out := make([]JobEvent, 0, 3+len(marks)+len(f.kept))
	if after < 1 && first <= 1 && f.last > 1 {
		out = append(out, queuedEvent)
	}
	if after < 2 && running && first <= 2 && f.last > 2 {
		out = append(out, runningEvent)
	}
	for _, m := range marks {
		if m.seq > after {
			out = append(out, JobEvent{Seq: m.seq, Type: EventCheckpoint, Cycle: m.cycle})
		}
	}
	for _, ev := range f.kept {
		if ev.Seq > after {
			out = append(out, ev)
		}
	}
	slices.SortFunc(out, func(a, b JobEvent) int { return cmp.Compare(a.Seq, b.Seq) })
	terminal.Seq = f.last
	return append(out, terminal)
}
