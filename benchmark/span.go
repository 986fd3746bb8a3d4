package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer: which layer, when, and the span
// that caused it.  Spans of one op share Op.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxFineSpans bounds the per-op log of the call-level spans (one per
// cycle, flag fill, match, transfer, request).  lb-storm makes ~700k
// transfers per op; the totals always cover every call, the log keeps the
// first maxFineSpans so trace files stay a few MB.
const maxFineSpans = 4000

// spanLog keeps spans in memory until the run ends.  It is used from one
// goroutine at a time (the engine driver is sequential; the service
// generator merges per-client logs afterwards).
type spanLog struct {
	t0      time.Time
	spans   []span
	op      int
	parent  int
	fine    int
	Dropped int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// beginOp starts op number op and returns its root span id; fine spans
// recorded until endOp are its children.
func (l *spanLog) beginOp(op int, name string, start time.Time) int {
	l.op = op
	l.fine = 0
	id := l.add(name, 0, start, start)
	l.parent = id
	return id
}

func (l *spanLog) endOp(id int, end time.Time) {
	l.spans[id-1].EndNS = end.Sub(l.t0).Nanoseconds()
	l.parent = 0
}

// coarse records a span that is always kept, as a child of the current op.
func (l *spanLog) coarse(name string, start, end time.Time) int {
	return l.add(name, l.parent, start, end)
}

// call records a call-level span under parent, dropping it once the op's
// quota is used.
func (l *spanLog) call(name string, parent int, start, end time.Time) {
	if l.fine >= maxFineSpans {
		l.Dropped++
		return
	}
	l.fine++
	l.add(name, parent, start, end)
}

func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	id := len(l.spans) + 1
	//lint:allow hotalloc a matcher decorator is reachable from the engine's balance root by interface dispatch; only the traced pass installs one, and it trades allocation for a span record
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Op: l.op, Name: name,
		StartNS: start.Sub(l.t0).Nanoseconds(), EndNS: end.Sub(l.t0).Nanoseconds(),
	})
	return id
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Scale        string `json:"scale"`
	DroppedSpans int    `json:"dropped_spans"`
	Spans        []span `json:"spans"`
}

// write stores the spans at benchmark/out/trace-<workload>.json.
func (l *spanLog) write(root string, cfg runConfig, workload string) (string, error) {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.Marshal(traceFile{
		Workload: workload, Seed: cfg.Seed, Scale: cfg.Scale,
		DroppedSpans: l.Dropped, Spans: l.spans,
	})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
