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
// once the log has trimmed past that point).  The log holds its events in
// the shape a finished job's record keeps (eventSet) from the first
// Append; the job's finish freezes it (EventLog.freeze) and the record
// rebuilds the terminal event, always the last, on read, so a reader
// resuming a finished job from a dropped tick gets the next kept event.

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
// cycles.  A full log makes room for its next event by dropping its oldest
// tick, or with no tick left its oldest mark or kept event; the queued and
// running events, two flags, are never dropped, and neither is the event
// the room is made for.  So a live log covers the most recent
// ~eventLogCap ticks — a reconnecting client older than that resumes at
// the next retained event.  It bounds a running job only: the job's finish
// cuts the ticks to the last one (EventLog.freeze), so a finished job's
// history entry does not grow with the ticks its run emitted.
const eventLogCap = 1024

// EventLog is a bounded append-only event buffer with sequence numbers
// and edge-triggered wakeups for streaming readers (StreamEvents).  The
// zero value is an empty log whose first event gets sequence 1.  It sorts
// each event as it is appended: the progress ticks into a list only a
// live log holds, everything else into an eventSet, the shape a finished
// job's record keeps.
type EventLog struct {
	mu    sync.Mutex
	last  int64         // seq of the last event appended (0: none yet)
	set   eventSet      // every event but the ticks
	ticks []JobEvent    // the progress ticks, per-shard ones included, in Seq order
	wake  chan struct{} // closed by the next Append or the freeze; made by the first reader to wait for it
}

// eventSet is a job's event log in the shape its record keeps: every
// event but the progress ticks, with the ones that say no more than their
// kind and position held in less than a JobEvent.  Its events are
//
//   - the queued event at seq 1 and the running event at seq 2, flags;
//   - plain checkpoint events, (seq, cycle) marks;
//   - kept verbatim, in Seq order: every other status or checkpoint event
//     (a steal's running event with its Shards, an aborted steal's with
//     its Error, a distributed run's checkpoints), and once the log is
//     frozen its last progress tick with the per-shard events after it.
//
// A finished job's set stores no terminal event: the record rebuilds it
// from its status, error, stats and cache-hit flag (job.terminalEvent) at
// the seq after the set's newest event.  A cache hit's set is empty.  The
// marks sit behind a pointer, so a set is 40 bytes of the record and only
// a job with plain checkpoints, a spooled one, pays for their slice.
type eventSet struct {
	kept            []JobEvent
	marks           *[]checkpointMark // nil until the first plain checkpoint
	queued, running bool
}

// checkpointMark is a plain checkpoint event, which sets no field but
// its cycle.
type checkpointMark struct {
	seq   int64
	cycle int
}

// The events a set holds as flags: a job's queued event is its first, and
// a job that started has its running event next.
var (
	queuedEvent  = JobEvent{Seq: 1, Type: EventStatus, Status: StatusQueued}
	runningEvent = JobEvent{Seq: 2, Type: EventStatus, Status: StatusRunning}
)

// Append assigns the next sequence number to ev, stores it, and wakes
// every blocked reader.  It is cheap enough to run on the simulation
// goroutine (the engine's Progress contract): a tick is an append to the
// tick list, and a full log drops its oldest tick by reslicing.
func (l *EventLog) Append(ev JobEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.size() >= eventLogCap {
		l.trim()
	}
	l.last++
	ev.Seq = l.last
	switch {
	case ev == queuedEvent:
		l.set.queued = true
	case ev == runningEvent:
		l.set.running = true
	case ev.Type == EventProgress:
		l.ticks = append(l.ticks, ev)
	case ev == JobEvent{Seq: ev.Seq, Type: EventCheckpoint, Cycle: ev.Cycle}:
		if l.set.marks == nil {
			l.set.marks = new([]checkpointMark)
		}
		*l.set.marks = append(*l.set.marks, checkpointMark{ev.Seq, ev.Cycle})
	default:
		l.set.kept = append(l.set.kept, ev)
	}
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// size is the number of events the log holds.  The caller holds l.mu.
func (l *EventLog) size() int {
	n := len(l.ticks) + len(l.set.kept) + len(l.set.markList())
	if l.set.queued {
		n++
	}
	if l.set.running {
		n++
	}
	return n
}

// trim drops the log's oldest tick, or with no tick left the older of its
// oldest mark and its oldest kept event.  The caller holds l.mu.
func (l *EventLog) trim() {
	marks, kept := l.set.markList(), l.set.kept
	switch {
	case len(l.ticks) > 0:
		l.ticks = l.ticks[1:]
	case len(kept) > 0 && (len(marks) == 0 || kept[0].Seq < marks[0].seq):
		l.set.kept = kept[1:]
	default:
		*l.set.marks = marks[1:]
	}
}

// Since returns a copy of the buffered events with Seq > after, plus a
// channel that is closed on the next Append.
func (l *EventLog) Since(after int64) ([]JobEvent, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wake == nil {
		l.wake = make(chan struct{})
	}
	return l.set.since(after, l.ticks), l.wake
}

// freeze ends a job's live log in the shape its record keeps: the ticks
// are cut to the last one with the per-shard events after it, which join
// the kept events, and the slices are made exact-size, so the set shares
// no memory with the log.  It closes the wake channel, so every reader
// blocked on the log looks again and finds the job terminal.
func (l *EventLog) freeze() eventSet {
	l.mu.Lock()
	defer l.mu.Unlock()
	last := len(l.ticks) - 1
	for last > 0 && l.ticks[last].Shard > 0 {
		last--
	}
	group := l.ticks[max(last, 0):]
	f := eventSet{queued: l.set.queued, running: l.set.running}
	if n := len(l.set.kept) + len(group); n > 0 {
		f.kept = append(append(make([]JobEvent, 0, n), l.set.kept...), group...)
		slices.SortFunc(f.kept, bySeq)
	}
	if marks := l.set.markList(); len(marks) > 0 {
		marks = slices.Clone(marks)
		f.marks = &marks
	}
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
	return f
}

// markList returns the set's marks, nil when it has none.
func (s *eventSet) markList() []checkpointMark {
	if s.marks == nil {
		return nil
	}
	return *s.marks
}

// newest is the seq of the newest event in s, 0 when it holds none.  A
// frozen set's newest event is its live log's last one, since a trim
// never drops the event it makes room for and the freeze keeps the last
// tick, so a finished job's terminal event has seq newest+1.
func (s *eventSet) newest() int64 {
	var seq int64
	if s.queued {
		seq = 1
	}
	if s.running {
		seq = 2
	}
	if n := len(s.kept); n > 0 {
		seq = max(seq, s.kept[n-1].Seq)
	}
	if marks := s.markList(); len(marks) > 0 {
		seq = max(seq, marks[len(marks)-1].seq)
	}
	return seq
}

// since returns the events of s and of extra, which is in Seq order, with
// Seq > after, in Seq order; nil when there are none.  A live log passes
// its ticks as extra, a finished job its rebuilt terminal event.
func (s *eventSet) since(after int64, extra []JobEvent) []JobEvent {
	kept, extra := seqAfter(s.kept, after), seqAfter(extra, after)
	marks := s.markList()
	i, _ := slices.BinarySearchFunc(marks, after+1, func(m checkpointMark, seq int64) int { return cmp.Compare(m.seq, seq) })
	marks = marks[i:]
	queued, running := s.queued && after < 1, s.running && after < 2
	n := len(kept) + len(marks) + len(extra)
	if queued {
		n++
	}
	if running {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]JobEvent, 0, n)
	if queued {
		out = append(out, queuedEvent)
	}
	if running {
		out = append(out, runningEvent)
	}
	for _, m := range marks {
		out = append(out, JobEvent{Seq: m.seq, Type: EventCheckpoint, Cycle: m.cycle})
	}
	out = append(append(out, kept...), extra...)
	slices.SortFunc(out, bySeq)
	return out
}

// seqAfter returns the suffix of evs, which are in Seq order, with
// Seq > after.  A live log's sequence numbers have gaps where it dropped
// events past its cap, so the suffix is found by Seq, not by offset.
func seqAfter(evs []JobEvent, after int64) []JobEvent {
	i, _ := slices.BinarySearchFunc(evs, after+1, func(ev JobEvent, seq int64) int { return cmp.Compare(ev.Seq, seq) })
	return evs[i:]
}

func bySeq(a, b JobEvent) int { return cmp.Compare(a.Seq, b.Seq) }
