package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"simdtree/internal/checkpoint"
	"simdtree/internal/metrics"
	"simdtree/internal/simd"
)

// liveJob is a queued job with its run and no server behind it: a live
// log to append to and a finish to end it with.
func liveJob() *job {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &job{id: "j1", status: StatusQueued, run: &jobRun{ctx: ctx, cancel: cancel, done: make(chan struct{})}}
}

// TestFreezeKeepsLifecycleAndLastTick pins the freeze rule on a
// distributed run's log: every status and checkpoint event stays, and of
// the progress ticks only the last one with its per-shard events.  A live
// log past its cap drops ticks, not the status events the freeze keeps.
func TestFreezeKeepsLifecycleAndLastTick(t *testing.T) {
	status := func(st Status) JobEvent { return JobEvent{Type: EventStatus, Status: st} }
	tick := func(cycle, shards int) []JobEvent {
		evs := []JobEvent{{Type: EventProgress, Cycle: cycle, Shards: shards}}
		for i := 1; i <= shards; i++ {
			evs = append(evs, JobEvent{Type: EventProgress, Cycle: cycle, Shard: i, Shards: shards})
		}
		return evs
	}
	var in []JobEvent
	in = append(in, status(StatusQueued), status(StatusRunning))
	in = append(in, tick(1, 0)...)
	in = append(in, JobEvent{Type: EventCheckpoint, Cycle: 1})
	in = append(in, JobEvent{Type: EventStatus, Status: StatusRunning, Shards: 2})
	in = append(in, tick(2, 2)...)
	in = append(in, tick(3, 2)...)
	in = append(in, JobEvent{Type: EventCheckpoint, Shards: 2})
	in = append(in, JobEvent{Type: EventStatus, Status: StatusDone, Terminal: true})

	j := liveJob()
	for _, ev := range in[:len(in)-1] {
		j.run.events.Append(ev)
	}
	j.finish(StatusDone, metrics.Stats{}, nil, "", time.Now())
	got, _ := j.eventsSince(0)
	var want []int64 // the Seq of each kept event: in's 1-based index
	for i, ev := range in {
		if ev.Type != EventProgress || ev.Cycle == 3 {
			want = append(want, int64(i+1))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("frozen log %+v, want the events of seq %v", got, want)
	}
	for i, ev := range got {
		if ev.Seq != want[i] || ev.Type != in[want[i]-1].Type || ev.Shard != in[want[i]-1].Shard {
			t.Fatalf("frozen log[%d] = %+v, want seq %d: %+v", i, ev, want[i], in[want[i]-1])
		}
	}

	long := liveJob()
	long.run.events.Append(status(StatusQueued))
	long.run.events.Append(status(StatusRunning))
	for c := 1; c <= 2*eventLogCap; c++ {
		long.run.events.Append(JobEvent{Type: EventProgress, Cycle: c})
	}
	if evs, _ := long.eventsSince(0); len(evs) != eventLogCap || evs[0].Status != StatusQueued || evs[1].Status != StatusRunning {
		t.Fatalf("a full live log starts %+v, want its queued and running events kept", evs[:2])
	}
	long.finish(StatusDone, metrics.Stats{}, nil, "", time.Now())
	evs, _ := long.eventsSince(0)
	if len(evs) != 4 || evs[0].Status != StatusQueued || evs[1].Status != StatusRunning ||
		evs[2].Cycle != 2*eventLogCap || !evs[3].Terminal {
		t.Fatalf("a long run's frozen log %+v, want queued, running, the last tick and the terminal event", evs)
	}
}

// lifecycleSurvivesTrim appends a queued, a running and 2·eventLogCap
// plain checkpoint events to a live job's log through add, then finishes
// the job.  The live log must hold the queued and running events and the
// newest eventLogCap-2 checkpoints, and the finished job's log the same
// events and then its terminal one; it returns the first difference, nil
// when there is none.
func lifecycleSurvivesTrim(add func(l *EventLog, ev JobEvent)) error {
	j := liveJob()
	add(&j.run.events, JobEvent{Type: EventStatus, Status: StatusQueued})
	add(&j.run.events, JobEvent{Type: EventStatus, Status: StatusRunning})
	const n = 2 * eventLogCap
	for c := 1; c <= n; c++ {
		add(&j.run.events, JobEvent{Type: EventCheckpoint, Cycle: c})
	}
	want := []JobEvent{queuedEvent, runningEvent}
	for c := n - eventLogCap + 3; c <= n; c++ {
		want = append(want, JobEvent{Seq: int64(c) + 2, Type: EventCheckpoint, Cycle: c})
	}
	if live, _ := j.eventsSince(0); !slices.Equal(live, want) {
		return fmt.Errorf("live log of %d events from %+v, want %d from %+v", len(live), live[:min(len(live), 3)], len(want), want[:3])
	}
	stats := metrics.Stats{P: 8, W: 1, Cycles: n}
	j.finish(StatusDone, stats, nil, "", time.Now())
	want = append(want, JobEvent{Seq: n + 3, Type: EventStatus, Status: StatusDone, Terminal: true}.withStats(stats))
	if frozen, _ := j.eventsSince(0); !slices.Equal(frozen, want) {
		return fmt.Errorf("finished log of %d events from %+v, want %d from %+v", len(frozen), frozen[:min(len(frozen), 3)], len(want), want[:3])
	}
	return nil
}

// TestTrimKeepsQueuedAndRunning: a live log full of checkpoints drops its
// oldest checkpoints, never its queued and running events, and the
// finished job's log keeps what the live one held.
func TestTrimKeepsQueuedAndRunning(t *testing.T) {
	if err := lifecycleSurvivesTrim((*EventLog).Append); err != nil {
		t.Fatal(err)
	}
}

// TestResumePastDroppedTick is the SSE resume contract on a finished job:
// a reader whose Last-Event-ID names a tick the freeze dropped gets the
// next kept event, and then the rest of the frozen log.
func TestResumePastDroppedTick(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, ProgressEvery: 50})
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(`{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":20000,"seed":7}}`))
	if err != nil {
		t.Fatal(err)
	}
	var doc wireJob
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil || doc.Status != StatusDone {
		t.Fatalf("job %+v (%v), want done", doc, err)
	}
	j, _ := s.store.Get(doc.ID)
	frozen, wake := j.eventsSince(0)
	if wake != nil {
		t.Fatal("a finished job hands out a wake channel")
	}
	// queued (1), running (2), the ticks from 3, the terminal event.
	if len(frozen) != 4 || frozen[2].Type != EventProgress || frozen[2].Seq <= 4 {
		t.Fatalf("frozen log %+v, want queued, running, a last tick past seq 4 and the terminal event", frozen)
	}

	const dropped = 3 // the first tick
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+doc.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprint(dropped))
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	tail := readSSE(t, stream.Body)
	if len(tail) != 2 || tail[0].id != frozen[2].Seq || tail[0].typ != EventProgress ||
		tail[1].id != frozen[3].Seq || !tail[1].data.Terminal {
		t.Fatalf("resumed after dropped tick %d: %+v, want the last tick (seq %d) then the terminal event (seq %d)",
			dropped, tail, frozen[2].Seq, frozen[3].Seq)
	}
}

// TestImportReleasesResume imports a checkpoint of over 100 KB and holds
// the job's run until the checkpoint is known to be its resume bytes;
// once the job is terminal, nothing the node keeps may still reach them.
// The imported job is the tenant's the import names.
func TestImportReleasesResume(t *testing.T) {
	ref, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := ref.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	})
	canonical, err := Canonicalize(JobSpec{Domain: "synthetic", Scheme: "GP-S0.90", P: 4096,
		Synthetic: &SyntheticSpec{W: 1 << 20, Seed: 5}}, ref.domains)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(canonical)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := ref.buildOptions(canonical)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.ProgressEvery = 1
	opts.Progress = func(pi simd.ProgressInfo) {
		if pi.Stats.Cycles >= 64 {
			cancel()
		}
	}
	var ckpt []byte
	env := RunEnv{CheckpointEvery: 1000, SpecJSON: specJSON, Write: func(b []byte) error {
		ckpt = bytes.Clone(b)
		return nil
	}}
	if _, err := RunSpec(ctx, canonical, opts, env); err == nil {
		t.Fatal("the checkpointing run was not cancelled")
	}
	if len(ckpt) < 100<<10 {
		t.Fatalf("the stop-time checkpoint is %d bytes, want at least 100 KB", len(ckpt))
	}

	started, release := make(chan struct{}), make(chan struct{})
	s, ts := testServer(t, Config{Workers: 1, Runners: map[string]Runner{
		"synthetic": func(_ context.Context, spec JobSpec, _ simd.Options, env RunEnv) (metrics.Stats, error) {
			if env.Resume == nil {
				return metrics.Stats{}, fmt.Errorf("imported job runs without its checkpoint")
			}
			close(started)
			<-release
			return metrics.Stats{P: spec.P, W: 1}, nil
		},
	}})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/import", bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", checkpoint.ContentType)
	req.Header.Set(TenantHeader, "t9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID     string `json:"id"`
		Tenant string `json:"tenant"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || doc.Tenant != "t9" {
		t.Fatalf("import: %d %+v (%v), want 202 for tenant t9", resp.StatusCode, doc, err)
	}
	<-started

	j, _ := s.store.Get(doc.ID)
	j.mu.Lock()
	resume := j.run.resume
	j.mu.Unlock()
	if len(resume) != len(ckpt) {
		t.Fatalf("the running job resumes from %d bytes, want the %d imported", len(resume), len(ckpt))
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(&resume[0], func(*byte) { close(freed) })
	resume = nil
	close(release)
	<-j.Done()
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-freed:
			if !j.Terminal() {
				t.Fatal("the resume bytes were freed before the job ended")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s is %s and its history entry still reaches its %d resume bytes", j.id, j.view().Status, len(ckpt))
		}
	}
}

// TestTerminalTransitionRaces runs each job's terminal transition
// (finishJob) against every reader a live job has: Done, a DELETE,
// eventsSince, offerSteal and view.  Under -race it holds the split of a
// job into its record and its run to the locking rule job.run states; in
// any mode every job must end with its done channel closed, its run
// dropped, and its log ending in its one terminal event.
func TestTerminalTransitionRaces(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	})
	h := s.Handler()
	spec := JobSpec{Domain: "synthetic", Scheme: "GP-DK", P: 8, Synthetic: &SyntheticSpec{W: 100, Seed: 1}}
	for i := 0; i < 200; i++ {
		j := s.newJob(spec, fmt.Sprintf("k%d", i), DefaultTenant, nil, time.Now())
		j.run.events.Append(JobEvent{Type: EventStatus, Status: StatusQueued})
		s.store.Add(j, &j.id)
		j.setYield(func(error) {})

		start := make(chan struct{})
		var wg sync.WaitGroup
		race := func(f func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				f()
			}()
		}
		race(func() { s.finishJob(j, StatusDone, metrics.Stats{P: 8, W: 1}, nil, "") })
		race(func() { <-j.Done() })
		race(func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+j.id, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("DELETE %s: %d %s", j.id, rec.Code, rec.Body)
			}
		})
		race(func() {
			if evs, _ := j.eventsSince(0); len(evs) == 0 || evs[0].Status != StatusQueued {
				t.Errorf("job %s: log %+v, want its queued event first", j.id, evs)
			}
		})
		race(func() { j.offerSteal(&stealOrder{started: make(chan *Refusal, 1)}) })
		race(func() { _ = j.view() })
		close(start)
		wg.Wait()

		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s: done still open after finish", j.id)
		}
		evs, wake := j.eventsSince(0)
		if j.run != nil || wake != nil || len(evs) != 2 || !evs[1].Terminal || j.view().Status != StatusDone {
			t.Fatalf("job %s after finish: run %v, wake %v, log %+v, status %s", j.id, j.run, wake, evs, j.view().Status)
		}
	}
}
