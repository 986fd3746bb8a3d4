package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/simd"
)

// parentFreeze is the freeze rule as it stood when a frozen log was a
// slice of events, the referee the record's rebuild is held to: every status and checkpoint event, and of
// the progress ticks only the last one, with that tick's per-shard events
// on a distributed run.
func parentFreeze(evs []JobEvent) []JobEvent {
	last := -1
	for i, ev := range evs {
		if ev.Type == EventProgress && ev.Shard == 0 {
			last = i
		}
	}
	var out []JobEvent
	for i, ev := range evs {
		if ev.Type != EventProgress || i == last || i > last && ev.Shard > 0 {
			out = append(out, ev)
		}
	}
	return out
}

// liveLog is a generated job history: what its worker appended to the
// live log between the queued event and the terminal one, and how it
// ended.  A hit is born terminal and appends nothing; a job that never
// started has only its queued event before the terminal one.
type liveLog struct {
	hit     bool
	started bool
	ops     []JobEvent // a tick's ops carry Shards = its shard count and Active = the first shard's share
	status  Status
	errMsg  string
	stats   metrics.Stats
}

func (liveLog) Generate(r *rand.Rand, size int) reflect.Value {
	g := liveLog{
		status: []Status{StatusDone, StatusCancelled, StatusTimeout, StatusExhausted, StatusFailed}[r.Intn(5)],
		stats: metrics.Stats{P: 1 + r.Intn(64), W: r.Int63n(1 << 20), Cycles: r.Intn(1 << 14), LBPhases: r.Intn(100),
			Tcalc: time.Duration(r.Int63n(1e9)), Tidle: time.Duration(r.Int63n(1e9)), Tlb: time.Duration(r.Int63n(1e9))},
	}
	if g.status != StatusDone || r.Intn(4) == 0 {
		g.errMsg = fmt.Sprintf("ended %d", r.Intn(10))
	}
	switch r.Intn(8) {
	case 0:
		g.hit, g.status, g.errMsg = true, StatusDone, ""
		return reflect.ValueOf(g)
	case 1:
		return reflect.ValueOf(g) // cancelled or failed while queued
	}
	g.started = true
	n := r.Intn(size + 1)
	long := r.Intn(10) == 0
	if long {
		// Past eventLogCap: ticks alone, or status and checkpoint events
		// alone, which trim their own oldest events but never queued or running.
		n = eventLogCap + r.Intn(eventLogCap/4)
	}
	cycle := 0
	for range n {
		cycle += 1 + r.Intn(3)
		var op JobEvent
		switch k := r.Intn(16); {
		case long && k < 8:
			op = JobEvent{Type: EventCheckpoint, Cycle: cycle}
		case long:
			op = JobEvent{Type: EventProgress, Cycle: cycle, Active: r.Intn(64)}
		case k < 6:
			op = JobEvent{Type: EventProgress, Cycle: cycle, Active: r.Intn(64), Shards: []int{0, 0, 2, 3}[r.Intn(4)]}
		case k < 10:
			op = JobEvent{Type: EventCheckpoint, Cycle: cycle}
		case k < 12:
			op = JobEvent{Type: EventCheckpoint, Shards: 2 + r.Intn(3)}
		case k < 14:
			op = JobEvent{Type: EventStatus, Status: StatusRunning, Shards: 2 + r.Intn(3)}
		default:
			op = JobEvent{Type: EventStatus, Status: StatusRunning, Error: fmt.Sprintf("distributed run aborted, resuming single-node: peer %d", r.Intn(3))}
		}
		g.ops = append(g.ops, op)
	}
	if long && r.Intn(2) == 0 {
		// A long log of one kind: all ticks, or no ticks at all.
		kind := g.ops[0].Type
		for i := range g.ops {
			if g.ops[i].Type != kind {
				g.ops[i] = JobEvent{Type: kind, Cycle: g.ops[i].Cycle}
			}
		}
	}
	return reflect.ValueOf(g)
}

// replay builds g's job on s as its node would: a hit through hitJob,
// any other job through newJob, the queued event enqueue appends, the
// running event and the run's events its worker appends, then finish.
// It returns the job and parentFreeze's log of the same history.
func (g liveLog) replay(t *testing.T, s *Server, key string) (*job, []JobEvent) {
	t.Helper()
	spec := JobSpec{Domain: "synthetic", Scheme: "GP-DK", P: 8, Synthetic: &SyntheticSpec{W: 100, Seed: 1}}
	now := time.Unix(1, 0)
	if g.hit {
		s.cache.put(key, cachedResult{Stats: g.stats})
		j, ok := s.hitJob(spec, key, DefaultTenant, now)
		if !ok {
			t.Fatal("no cache hit on the result just stored")
		}
		return j, []JobEvent{JobEvent{Seq: 1, Type: EventStatus, Status: StatusDone, CacheHit: true, Terminal: true}.withStats(g.stats)}
	}
	j := s.newJob(spec, key, DefaultTenant, nil, now)
	r := j.run
	r.events.Append(JobEvent{Type: EventStatus, Status: StatusQueued})
	if g.started {
		j.mu.Lock()
		j.status, j.started = StatusRunning, now
		j.mu.Unlock()
		r.events.Append(JobEvent{Type: EventStatus, Status: StatusRunning})
	}
	for _, op := range g.ops {
		if op.Type != EventProgress {
			r.events.Append(op)
			continue
		}
		pi := simd.ProgressInfo{Ledger: simd.Ledger{Stats: metrics.Stats{P: 64, Cycles: op.Cycle, W: int64(op.Cycle) * 7, Tcalc: time.Duration(op.Cycle)}}, Active: op.Active}
		var shards []int
		for i := range op.Shards {
			shards = append(shards, op.Active/op.Shards+i)
		}
		r.progress(pi, shards)
	}
	live, _ := r.events.Since(0)
	r.events.mu.Lock()
	seq := r.events.last + 1
	r.events.mu.Unlock()
	live = append(live, JobEvent{Seq: seq, Type: EventStatus, Status: g.status, Error: g.errMsg, Terminal: true}.withStats(g.stats))
	if !j.finish(g.status, g.stats, nil, g.errMsg, now) {
		t.Fatal("finish found no run")
	}
	return j, parentFreeze(live)
}

// checkFrozen holds a terminal job's rebuilt log to want, parentFreeze's:
// from every sequence number after in [0, last], since(after) must equal
// want's events with Seq > after (nil when there are none), and each
// event must marshal to the same bytes as want's (equal events marshal
// equally, so the suffixes do too).  It returns the first difference, nil
// when there is none.
func checkFrozen(since func(after int64) []JobEvent, want []JobEvent) error {
	all := since(0)
	if len(all) != len(want) {
		return fmt.Errorf("rebuilt log has %d events, the referee's %d:\n got %+v\nwant %+v", len(all), len(want), all, want)
	}
	for i := range want {
		got, err := json.Marshal(all[i])
		if err != nil {
			return err
		}
		exp, err := json.Marshal(want[i])
		if err != nil {
			return err
		}
		if string(got) != string(exp) {
			return fmt.Errorf("event %d marshals to %s, the referee's to %s", i, got, exp)
		}
	}
	last := want[len(want)-1].Seq
	for after := int64(0); after <= last; after++ {
		var exp []JobEvent
		if i := slices.IndexFunc(want, func(ev JobEvent) bool { return ev.Seq > after }); i >= 0 {
			exp = want[i:]
		}
		if got := since(after); !slices.Equal(got, exp) || (got == nil) != (exp == nil) {
			return fmt.Errorf("eventsSince(%d) = %+v, the referee's %+v", after, got, exp)
		}
	}
	return nil
}

// freezeReferee runs the referee of the freeze over count random job
// histories — hits, jobs that never started, status events, steal aborts
// and starts, plain and distributed checkpoints, ticks with shard events,
// and logs trimmed past eventLogCap — and returns the first history whose
// terminal job's events, from some sequence number, are not
// parentFreeze's.  plant, when non-nil, stands in for the job's
// eventsSince.
func freezeReferee(t *testing.T, count int, plant func(j *job, after int64) []JobEvent) error {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	n := 0
	var failure error
	prop := func(g liveLog) bool {
		n++
		j, want := g.replay(t, s, fmt.Sprintf("k%d", n))
		since := func(after int64) []JobEvent {
			evs, wake := j.eventsSince(after)
			if wake != nil {
				t.Fatal("a terminal job hands out a wake channel")
			}
			return evs
		}
		if plant != nil {
			since = func(after int64) []JobEvent { return plant(j, after) }
		}
		failure = checkFrozen(since, want)
		return failure == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(53))}); err != nil {
		return failure
	}
	return nil
}

// TestFreezeReferee: for random job histories, a terminal job's events
// from every sequence number are parentFreeze's.
func TestFreezeReferee(t *testing.T) {
	count := 400
	if testing.Short() {
		count = 100
	}
	if err := freezeReferee(t, count, nil); err != nil {
		t.Fatal(err)
	}
}

var mutants = flag.Bool("mutants", false, "run the planted mutants: each subtest of TestPlantedMutants passes when the referees catch its mutant")

// TestPlantedMutants runs three planted faults of the event log and two
// of the job store against their referees; each subtest passes when its mutant is caught and fails
// when it survives, and they run only with -mutants:
//
//   - hit-drops-cache-hit: a cache hit's rebuilt terminal event loses its
//     CacheHit.  The freeze referee's hits catch it at the terminal event.
//   - abort-drops-error: the record keeps a steal's status events without
//     their Error, so an aborted steal's running event is rebuilt as a
//     plain one.  The freeze referee's histories with an abort catch it.
//   - trim-drops-queued: a full live log makes room by dropping its oldest
//     event, the queued one, instead of its oldest checkpoint.
//     lifecycleSurvivesTrim (TestTrimKeepsQueuedAndRunning) catches it on
//     the live log.
//   - get-trusts-tail: a lookup returns the job at the id's tail slot
//     without checking its n, so an evicted id or a misspelled one finds
//     whatever job sits there.  The store referee (TestJobStoreReferee)
//     catches it.
//   - evict-live: an add that overfills the store evicts its head whatever
//     its status, a live job included.  The store referee catches it.
func TestPlantedMutants(t *testing.T) {
	if !*mutants {
		t.Skip("planted mutants run with -mutants; each must be caught")
	}
	frozen := func(plant func(j *job, after int64) []JobEvent) func(t *testing.T) error {
		return func(t *testing.T) error { return freezeReferee(t, 400, plant) }
	}
	for _, m := range []struct {
		name   string
		caught func(t *testing.T) error
	}{
		{"hit-drops-cache-hit", frozen(func(j *job, after int64) []JobEvent {
			evs, _ := j.eventsSince(after)
			for i := range evs {
				if evs[i].Terminal {
					evs[i].CacheHit = false
				}
			}
			return evs
		})},
		{"abort-drops-error", frozen(func(j *job, after int64) []JobEvent {
			j.mu.Lock()
			for i := range j.events.kept {
				if ev := &j.events.kept[i]; ev.Type == EventStatus {
					ev.Error = ""
				}
			}
			j.mu.Unlock()
			evs, _ := j.eventsSince(after)
			return evs
		})},
		{"trim-drops-queued", func(*testing.T) error {
			return lifecycleSurvivesTrim(func(l *EventLog, ev JobEvent) {
				l.mu.Lock()
				if l.size() >= eventLogCap && l.set.queued {
					l.set.queued = false // the room the Append needs
				}
				l.mu.Unlock()
				l.Append(ev)
			})
		}},
		{"get-trusts-tail", func(*testing.T) error {
			return storeReferee(400, nil, func(s *JobStore[*job], id string) (*job, bool) {
				n, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64)
				s.mu.Lock()
				stored := s.order[s.head:]
				i := len(stored) - 1 - int(s.next-n)
				s.mu.Unlock()
				if err == nil && i >= 0 && i < len(stored) {
					return stored[i].job, true
				}
				return s.Get(id)
			})
		}},
		{"evict-live", func(*testing.T) error {
			return storeReferee(400, func(s *JobStore[*job], j *job) int {
				s.mu.Lock()
				var head *job
				if s.head < len(s.order) {
					head = s.order[s.head].job
				}
				s.mu.Unlock()
				if head != nil {
					// The head looks terminal to the add that evicts it.
					status := head.status
					head.status = StatusDone
					defer func() { head.status = status }()
				}
				return s.Add(j, &j.id)
			}, nil)
		}},
	} {
		t.Run(m.name, func(t *testing.T) {
			err := m.caught(t)
			if err == nil {
				t.Fatal("the mutant survived: every rebuilt log matches the referee's")
			}
			t.Logf("caught: %.300s", err)
		})
	}
}
