package server

import (
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
// the log: it is always the last event, and it is always retained.

// Event types.
const (
	EventStatus     = "status"     // lifecycle transition; Status is set
	EventProgress   = "progress"   // periodic engine liveness snapshot
	EventCheckpoint = "checkpoint" // a spooled checkpoint was persisted
)

// JobEvent is one entry of a job's progress stream.  The JSON encoding is
// the SSE data payload.  Its two float32 fields sit in the padding after
// the bools, so a JobEvent stays 120 bytes and eight still fit one 1 KiB
// allocation: a node's history keeps 4096 jobs' event logs.
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
func (j *job) progress(pi simd.ProgressInfo, shardActive []int) {
	ev := JobEvent{Type: EventProgress, Active: pi.Active, IdleOverLP: float32(pi.IdleOverLP()), Shards: len(shardActive)}.withStats(pi.Stats)
	j.events.Append(ev)
	for i, a := range shardActive {
		j.events.Append(JobEvent{Type: ev.Type, Cycle: ev.Cycle, Active: a, Shard: i + 1, Shards: ev.Shards})
	}
}

// eventLogCap bounds the per-job event buffer.  Status and checkpoint
// events are sparse; progress events arrive every Config.ProgressEvery
// cycles, so the buffer covers the most recent ~eventLogCap ticks — a
// reconnecting client older than that restarts from the oldest retained
// event.
const eventLogCap = 1024

// EventLog is a bounded append-only event buffer with sequence numbers
// and edge-triggered wakeups for streaming readers (StreamEvents).
//
// A terminal event freezes the log: its events move to an exact-size
// slice, wake becomes nil and every later Append is dropped.  A finished
// job's log is then only what its history entry must answer, and a reader
// past the terminal event blocks on the nil channel until its own context
// or heartbeat, as on a channel no Append will close.
type EventLog struct {
	mu     sync.Mutex
	next   int64 // seq the next append will get (first event: 1)
	base   int64 // seq of events[0]
	events []JobEvent
	wake   chan struct{} // closed and replaced on every append; nil once frozen
}

// NewEventLog returns an empty log; its first event gets sequence 1.
func NewEventLog() *EventLog {
	return &EventLog{next: 1, base: 1, wake: make(chan struct{})}
}

// Append assigns the next sequence number to ev, stores it, and wakes
// every blocked reader; a terminal ev freezes the log, and a frozen log
// drops ev.  It is cheap enough to run on the simulation goroutine (the
// engine's Progress contract).
func (l *EventLog) Append(ev JobEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wake == nil {
		return
	}
	ev.Seq = l.next
	l.next++
	l.events = append(l.events, ev)
	if len(l.events) > eventLogCap {
		drop := len(l.events) - eventLogCap
		l.base += int64(drop)
		l.events = append(l.events[:0], l.events[drop:]...)
	}
	close(l.wake)
	if !ev.Terminal {
		l.wake = make(chan struct{})
		return
	}
	l.wake = nil
	if len(l.events) < cap(l.events) {
		l.events = slices.Clone(l.events)
	}
}

// Since returns a copy of the buffered events with Seq > after, plus a
// channel that is closed on the next Append — the reader's blocking edge,
// nil once the log is frozen.
func (l *EventLog) Since(after int64) ([]JobEvent, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := after + 1 - l.base
	if start < 0 {
		start = 0
	}
	var out []JobEvent
	if int(start) < len(l.events) {
		out = append(out, l.events[start:]...)
	}
	return out, l.wake
}
