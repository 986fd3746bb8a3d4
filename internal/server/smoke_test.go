package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/simd"
)

// TestConcurrentSmoke is the end-to-end race smoke test: it drives the
// service with >= 8 concurrent jobs over a small worker pool, including
// one job that gets cancelled, one that times out, and one whose domain
// panics, and requires every job to reach a terminal state with the
// process (and every worker) surviving.  CI runs this package with
// -race, which also exercises the submit/cancel/poll paths against the
// pool under the detector.
func TestConcurrentSmoke(t *testing.T) {
	cfg := Config{Workers: 4, QueueSize: 32, Runners: map[string]Runner{
		"explode": func(ctx context.Context, spec JobSpec, opts simd.Options, env RunEnv) (metrics.Stats, error) {
			panic("smoke boom")
		},
	}}
	s, ts := testServer(t, cfg)

	type submission struct {
		name   string
		spec   string
		cancel bool
		want   []Status
	}
	subs := []submission{
		{name: "queens-a", spec: `{"domain":"queens","scheme":"GP-DK","p":32,"queens":{"n":7}}`, want: []Status{StatusDone}},
		{name: "queens-b", spec: `{"domain":"queens","scheme":"nGP-S0.85","p":64,"queens":{"n":8}}`, want: []Status{StatusDone}},
		{name: "synthetic-a", spec: `{"domain":"synthetic","scheme":"GP-DP","p":64,"synthetic":{"w":20000,"seed":1}}`, want: []Status{StatusDone}},
		{name: "synthetic-b", spec: `{"domain":"synthetic","scheme":"GP-DK","p":128,"synthetic":{"w":40000,"seed":2}}`, want: []Status{StatusDone}},
		{name: "puzzle", spec: `{"domain":"puzzle","scheme":"GP-S0.80","p":16,"puzzle":{"seed":5,"steps":16}}`, want: []Status{StatusDone}},
		{name: "budgeted", spec: `{"domain":"synthetic","scheme":"GP-S0.80","p":64,"budget_cycles":25,"synthetic":{"w":5000000,"seed":4}}`, want: []Status{StatusExhausted}},
		{name: "timeout", spec: bigSyntheticSpec(`"timeout_ms":40,`), want: []Status{StatusTimeout}},
		{name: "cancelled", spec: bigSyntheticSpec(""), cancel: true, want: []Status{StatusCancelled}},
		{name: "panic", spec: `{"domain":"explode","scheme":"GP-DK","p":4}`, want: []Status{StatusFailed}},
	}
	if len(subs) < 8 {
		t.Fatalf("smoke needs >= 8 jobs, have %d", len(subs))
	}

	var wg sync.WaitGroup
	results := make([]wireJob, len(subs))
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub submission) {
			defer wg.Done()
			j, code := postJob(t, ts, sub.spec)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("%s: submit status %d", sub.name, code)
				return
			}
			if sub.cancel {
				// Let it get going, then cancel; the job is hours of
				// simulation if the cancel were lost.
				time.Sleep(50 * time.Millisecond)
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("%s: cancel: %v", sub.name, err)
					return
				}
				resp.Body.Close()
			}
			results[i] = waitTerminal(t, ts, j.ID)
		}(i, sub)
	}
	wg.Wait()

	for i, sub := range subs {
		got := results[i].Status
		okStatus := false
		for _, w := range sub.want {
			if got == w {
				okStatus = true
			}
		}
		if !okStatus {
			t.Errorf("%s: finished %q (err %q), want one of %v", sub.name, got, results[i].Error, sub.want)
		}
	}

	// The pool survived the panic: counters line up and a fresh job runs.
	if got := s.ctr.panics.Load(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	last, _ := postJob(t, ts, `{"domain":"queens","scheme":"GP-DK","p":16,"queens":{"n":6}}`)
	if fin := waitTerminal(t, ts, last.ID); fin.Status != StatusDone {
		t.Errorf("post-smoke job finished %q: %s", fin.Status, fin.Error)
	}

	// /metrics stays consistent under load.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		JobsRunning   int64 `json:"jobs_running"`
		JobsDone      int64 `json:"jobs_done_total"`
		JobsCancelled int64 `json:"jobs_cancelled_total"`
		JobsTimeout   int64 `json:"jobs_timeout_total"`
		JobsExhausted int64 `json:"jobs_exhausted_total"`
		JobsFailed    int64 `json:"jobs_failed_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	terminal := m.JobsDone + m.JobsCancelled + m.JobsTimeout + m.JobsExhausted + m.JobsFailed
	if want := int64(len(subs) + 1); terminal != want {
		t.Errorf("terminal jobs = %d, want %d", terminal, want)
	}
	if m.JobsRunning != 0 {
		t.Errorf("%d jobs still running after drain", m.JobsRunning)
	}
	for name, want := range map[string]int64{
		"cancelled": m.JobsCancelled, "timeout": m.JobsTimeout,
		"failed": m.JobsFailed, "exhausted": m.JobsExhausted,
	} {
		if want < 1 {
			t.Errorf("no %s job recorded in metrics", name)
		}
	}
}
