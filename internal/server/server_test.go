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
	"sync/atomic"
	"testing"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/simd"
	"simdtree/internal/synthetic"
)

// testServer boots a Server behind an httptest listener.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// wireJob mirrors jobResponse with the stats kept raw so tests can check
// byte identity.
type wireJob struct {
	ID               string          `json:"id"`
	Status           Status          `json:"status"`
	CacheKey         string          `json:"cache_key"`
	CacheHit         bool            `json:"cache_hit"`
	Error            string          `json:"error"`
	Resumed          bool            `json:"resumed"`
	ResumedFromCycle int             `json:"resumed_from_cycle"`
	Stats            json.RawMessage `json:"stats"`
}

func postJob(t *testing.T, ts *httptest.Server, spec string) (wireJob, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j wireJob
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return j, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) wireJob {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var j wireJob
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

// waitTerminal polls until the job leaves the queue/run states.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) wireJob {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j := getJob(t, ts, id)
		if j.Status.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return wireJob{}
}

const queensSpec = `{"domain":"queens","scheme":"GP-DK","p":32,"queens":{"n":7}}`

// bigSyntheticSpec is a job that takes long enough to cancel or time out:
// ~270M nodes at P=256 is minutes of simulation if left alone.
func bigSyntheticSpec(extra string) string {
	return `{"domain":"synthetic","scheme":"GP-S0.80","p":256,` + extra + `"synthetic":{"w":268435456,"seed":3}}`
}

func TestSubmitPollDone(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	j, code := postJob(t, ts, queensSpec)
	// The contract of a 202 is "not finished yet", not "not started yet": a
	// free worker may have dequeued the job before the response rendered —
	// or, a 7-queens run being what it is, finished it, which is a 200.
	switch {
	case code == http.StatusAccepted && (j.Status == StatusQueued || j.Status == StatusRunning):
	case code == http.StatusOK && j.Status == StatusDone && !j.CacheHit:
	default:
		t.Fatalf("fresh job answered %d with status %q (cache hit %v); want 202 and queued or running, or 200 and done", code, j.Status, j.CacheHit)
	}
	fin := waitTerminal(t, ts, j.ID)
	if fin.Status != StatusDone {
		t.Fatalf("job finished %q (err %q), want done", fin.Status, fin.Error)
	}
	var st metrics.Stats
	if err := json.Unmarshal(fin.Stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Goals != 40 {
		t.Errorf("7-queens found %d solutions, want 40", st.Goals)
	}
}

// TestCacheHitByteIdentical is the acceptance-criteria test: a cache hit
// must return byte-identical Stats to the cold run of the same job spec,
// and specs spelled with explicit defaults must hit the same entry.
func TestCacheHitByteIdentical(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	cold, _ := postJob(t, ts, queensSpec)
	coldFin := waitTerminal(t, ts, cold.ID)
	if coldFin.Status != StatusDone {
		t.Fatalf("cold run %q: %s", coldFin.Status, coldFin.Error)
	}

	warm, code := postJob(t, ts, queensSpec)
	if code != http.StatusOK {
		t.Fatalf("cache-hit submit status %d, want 200", code)
	}
	if !warm.CacheHit || warm.Status != StatusDone {
		t.Fatalf("second submit not served from cache: %+v", warm)
	}
	if !bytes.Equal(coldFin.Stats, warm.Stats) {
		t.Errorf("cache hit is not byte-identical:\ncold %s\nwarm %s", coldFin.Stats, warm.Stats)
	}
	if warm.CacheKey != cold.CacheKey {
		t.Errorf("cache keys differ: %s vs %s", warm.CacheKey, cold.CacheKey)
	}

	// Same job with defaults spelled out hits the same entry.
	explicit := `{"domain":"queens","scheme":"GP-DK","p":32,"topology":"cm2","timeout_ms":60000,"queens":{"n":7}}`
	warm2, _ := postJob(t, ts, explicit)
	if !warm2.CacheHit {
		t.Error("explicitly-defaulted spec missed the cache")
	}
	if !bytes.Equal(coldFin.Stats, warm2.Stats) {
		t.Error("explicitly-defaulted spec returned different stats")
	}
}

func TestCancelRunningJob(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, ProgressEvery: 1})
	j, code := postJob(t, ts, bigSyntheticSpec(""))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	// Wait for a progress event — evidence that a cycle has completed —
	// so the cancel exercises the engine's cycle-boundary check mid-run.
	// Status "running" alone is not that: a DELETE sent on it can land
	// before cycle 1 ends, and the run then reports no cycles.
	h, ok := s.store.Get(j.ID)
	if !ok {
		t.Fatalf("job %s not addressable", j.ID)
	}
	deadline := time.After(10 * time.Second)
	for cycled := false; !cycled; {
		evs, wake := h.eventsSince(0)
		for _, ev := range evs {
			cycled = cycled || ev.Type == EventProgress && ev.Cycle > 0
			if ev.Type == EventProgress && (ev.Efficiency <= 0 || ev.Efficiency > 1) {
				t.Errorf("progress event %+v: efficiency outside (0, 1]", ev)
			}
		}
		if cycled {
			break
		}
		select {
		case <-wake:
		case <-deadline:
			t.Fatal("job never completed a cycle")
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fin := waitTerminal(t, ts, j.ID)
	if fin.Status != StatusCancelled {
		t.Fatalf("cancelled job finished %q (err %q)", fin.Status, fin.Error)
	}
	var st metrics.Stats
	if err := json.Unmarshal(fin.Stats, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Cancelled {
		t.Error("partial stats do not carry the Cancelled flag")
	}
	if st.Cycles == 0 {
		t.Error("cancelled mid-run but no completed cycles reported")
	}
}

func TestTimeoutJob(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	j, _ := postJob(t, ts, bigSyntheticSpec(`"timeout_ms":50,`))
	fin := waitTerminal(t, ts, j.ID)
	if fin.Status != StatusTimeout {
		t.Fatalf("job finished %q (err %q), want timeout", fin.Status, fin.Error)
	}
	var st metrics.Stats
	if err := json.Unmarshal(fin.Stats, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Cancelled {
		t.Error("timed-out stats do not carry the Cancelled flag")
	}
}

func TestBudgetExhaustion(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	j, _ := postJob(t, ts, `{"domain":"synthetic","scheme":"GP-S0.80","p":64,"budget_cycles":10,"synthetic":{"w":1000000,"seed":3}}`)
	fin := waitTerminal(t, ts, j.ID)
	if fin.Status != StatusExhausted {
		t.Fatalf("job finished %q (err %q), want exhausted", fin.Status, fin.Error)
	}
	var st metrics.Stats
	if err := json.Unmarshal(fin.Stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cycles != 10 {
		t.Errorf("budgeted job ran %d cycles, want 10", st.Cycles)
	}
}

// TestHandlerTable covers the HTTP surface of a node built by New alone:
// its error answers, and the routes of its one front door (estimate,
// batch, collapse, the memory limit).
func TestHandlerTable(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	_, ts := testServer(t, Config{Workers: 1, MemLimit: 1 << 20,
		Runners: map[string]Runner{"block": gatedRunner(&runs, release)}})
	t.Cleanup(func() { close(release) })
	post := func(path, body string) *http.Response {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	const blocked = `{"domain":"block","scheme":"GP-DK","p":8}`
	unknownJob := func(t *testing.T, resp *http.Response) {
		var doc struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.Error != "unknown job id" {
			t.Errorf("error %q (%v), want \"unknown job id\"", doc.Error, err)
		}
	}
	cases := []struct {
		name  string
		do    func() *http.Response
		want  int
		check func(t *testing.T, resp *http.Response) // nil checks the status only
	}{
		{"malformed json", func() *http.Response { return post("/v1/jobs", "{") }, http.StatusBadRequest, nil},
		{"unknown field", func() *http.Response { return post("/v1/jobs", `{"domian":"puzzle"}`) }, http.StatusBadRequest, nil},
		{"unknown domain", func() *http.Response { return post("/v1/jobs", `{"domain":"chess","scheme":"GP-DK","p":4}`) }, http.StatusBadRequest, nil},
		{"bad scheme", func() *http.Response {
			return post("/v1/jobs", `{"domain":"queens","scheme":"zz","p":4,"queens":{"n":6}}`)
		}, http.StatusBadRequest, nil},
		{"unknown job", func() *http.Response { return get("/v1/jobs/j999") }, http.StatusNotFound, unknownJob},
		{"unknown trace", func() *http.Response { return get("/v1/jobs/j999/trace") }, http.StatusNotFound, nil},
		{"method not allowed", func() *http.Response { return post("/healthz", "") }, http.StatusMethodNotAllowed, nil},
		{"healthz", func() *http.Response { return get("/healthz") }, http.StatusOK, nil},
		{"version", func() *http.Response { return get("/version") }, http.StatusOK, nil},
		{"metrics", func() *http.Response { return get("/metrics") }, http.StatusOK, nil},
		{"list", func() *http.Response { return get("/v1/jobs") }, http.StatusOK, nil},
		{"estimate", func() *http.Response { return post("/v1/estimate", queensSpec) }, http.StatusOK,
			func(t *testing.T, resp *http.Response) {
				var est estimateResponse
				if err := json.NewDecoder(resp.Body).Decode(&est); err != nil || est.Domain != "queens" || est.PredictedW <= 0 {
					t.Errorf("estimate %+v, %v", est, err)
				}
			}},
		{"batch", func() *http.Response {
			return post("/v1/jobs:batch", `{"wait":true,"jobs":[`+queensSpec+`,{"domain":"chess","scheme":"GP-DK","p":4}]}`)
		}, http.StatusOK, func(t *testing.T, resp *http.Response) {
			var br batchResponse
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				t.Fatal(err)
			}
			if br.Accepted != 1 || br.Rejected != 1 || len(br.Items) != 2 ||
				br.Items[0].Code != http.StatusOK || br.Items[0].Status != StatusDone || br.Items[1].Code != http.StatusBadRequest {
				t.Errorf("batch verdicts %+v, want the first done (200), the second 400", br)
			}
		}},
		{"over the memory limit", func() *http.Response {
			return post("/v1/jobs", `{"domain":"synthetic","scheme":"GP-DK","p":65536,"synthetic":{"w":268435456,"seed":3}}`)
		}, http.StatusRequestEntityTooLarge, nil},
		{"first of two identical", func() *http.Response { return post("/v1/jobs", blocked) }, http.StatusAccepted,
			func(t *testing.T, resp *http.Response) {
				if h := resp.Header.Get(collapsedHeader); h != "" {
					t.Errorf("%s: %q on the submission that opened the flight", collapsedHeader, h)
				}
			}},
		{"second of two identical", func() *http.Response { return post("/v1/jobs", blocked) }, http.StatusAccepted,
			func(t *testing.T, resp *http.Response) {
				if h := resp.Header.Get(collapsedHeader); h != "1" {
					t.Errorf("%s = %q on an identical submission while the first runs, want 1", collapsedHeader, h)
				}
			}},
		{"identical under another deadline", func() *http.Response {
			return post("/v1/jobs", `{"domain":"block","scheme":"GP-DK","p":8,"timeout_ms":60000}`)
		}, http.StatusAccepted, func(t *testing.T, resp *http.Response) {
			if h := resp.Header.Get(collapsedHeader); h != "" {
				t.Errorf("%s = %q: a submission joined a run under another timeout_ms", collapsedHeader, h)
			}
		}},
		// The batch's done job is j1: only that spelling finds it.
		{"known job", func() *http.Response { return get("/v1/jobs/j1") }, http.StatusOK, nil},
		{"unknown job j01", func() *http.Response { return get("/v1/jobs/j01") }, http.StatusNotFound, unknownJob},
		{"unknown job j+1", func() *http.Response { return get("/v1/jobs/j+1") }, http.StatusNotFound, unknownJob},
		{"unknown job J1", func() *http.Response { return get("/v1/jobs/J1") }, http.StatusNotFound, unknownJob},
		{"unknown job f1", func() *http.Response { return get("/v1/jobs/f1") }, http.StatusNotFound, unknownJob},
		{"unknown job j05", func() *http.Response { return get("/v1/jobs/j05") }, http.StatusNotFound, unknownJob},
		{"unknown job j+5", func() *http.Response { return get("/v1/jobs/j+5") }, http.StatusNotFound, unknownJob},
		{"unknown job J5", func() *http.Response { return get("/v1/jobs/J5") }, http.StatusNotFound, unknownJob},
		{"unknown job j-1", func() *http.Response { return get("/v1/jobs/j-1") }, http.StatusNotFound, unknownJob},
		{"unknown job j0", func() *http.Response { return get("/v1/jobs/j0") }, http.StatusNotFound, unknownJob},
		{"unknown job j", func() *http.Response { return get("/v1/jobs/j") }, http.StatusNotFound, unknownJob},
		{"unknown job past int64", func() *http.Response { return get("/v1/jobs/j99999999999999999999") }, http.StatusNotFound, unknownJob},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.do()
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.want)
			}
			if tc.check != nil {
				tc.check(t, resp)
			}
		})
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	// Untraced job: trace endpoint must refuse.
	plain, _ := postJob(t, ts, queensSpec)
	waitTerminal(t, ts, plain.ID)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + plain.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("untraced trace fetch: status %d, want 409", resp.StatusCode)
	}

	traced, _ := postJob(t, ts, `{"domain":"queens","scheme":"GP-DK","p":32,"trace":true,"queens":{"n":7}}`)
	fin := waitTerminal(t, ts, traced.ID)
	if fin.Status != StatusDone {
		t.Fatalf("traced job %q: %s", fin.Status, fin.Error)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + traced.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: status %d", resp.StatusCode)
	}
	var tr traceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) == 0 {
		t.Error("trace has no samples")
	}
	var st metrics.Stats
	if err := json.Unmarshal(fin.Stats, &st); err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != st.Cycles {
		t.Errorf("%d trace samples for %d cycles", len(tr.Samples), st.Cycles)
	}
}

// TestQueueBackpressure fills the bounded queue behind a blocked worker
// and expects 429 with Retry-After.
func TestQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	t.Cleanup(func() { once.Do(func() { close(release) }) })
	cfg := Config{Workers: 1, QueueSize: 1, Runners: map[string]Runner{
		"block": func(ctx context.Context, spec JobSpec, opts simd.Options, env RunEnv) (metrics.Stats, error) {
			select {
			case <-ctx.Done():
				return metrics.Stats{Cancelled: true}, context.Cause(ctx)
			case <-release:
				return metrics.Stats{P: spec.P, W: 1}, nil
			}
		},
	}}
	_, ts := testServer(t, cfg)
	spec := func(p int) string {
		return fmt.Sprintf(`{"domain":"block","scheme":"GP-DK","p":%d}`, p)
	}
	// First job occupies the worker, second fills the queue; distinct P
	// keeps their cache keys distinct.
	a, code := postJob(t, ts, spec(1))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	// Wait until the worker picked up job A so the queue slot is free.
	deadline := time.Now().Add(5 * time.Second)
	for getJob(t, ts, a.ID).Status != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, code = postJob(t, ts, spec(2)); code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec(3)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overfull submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	once.Do(func() { close(release) })
}

// TestPanicIsolation injects a panicking domain: its job fails, the
// worker survives, and the next job completes.
func TestPanicIsolation(t *testing.T) {
	cfg := Config{Workers: 1, Runners: map[string]Runner{
		"explode": func(ctx context.Context, spec JobSpec, opts simd.Options, env RunEnv) (metrics.Stats, error) {
			panic("boom")
		},
	}}
	s, ts := testServer(t, cfg)
	bad, _ := postJob(t, ts, `{"domain":"explode","scheme":"GP-DK","p":4}`)
	fin := waitTerminal(t, ts, bad.ID)
	if fin.Status != StatusFailed {
		t.Fatalf("panicking job finished %q, want failed", fin.Status)
	}
	if !strings.Contains(fin.Error, "panicked") {
		t.Errorf("error %q does not mention the panic", fin.Error)
	}
	if got := s.ctr.panics.Load(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	// The same (sole) worker must still serve real jobs.
	ok, _ := postJob(t, ts, queensSpec)
	if fin := waitTerminal(t, ts, ok.ID); fin.Status != StatusDone {
		t.Errorf("post-panic job finished %q: %s", fin.Status, fin.Error)
	}
}

// lateBomb is a synthetic tree that panics inside Expand once the machine
// has expanded enough nodes to be running wide.
type lateBomb struct {
	*synthetic.Tree
	after, calls atomic.Int64
}

func (d *lateBomb) Expand(n synthetic.Node, buf []synthetic.Node) []synthetic.Node {
	if d.calls.Add(1) > d.after.Load() {
		panic("boom in Expand")
	}
	return d.Tree.Expand(n, buf)
}

// TestPanicIsolationSimWorkers is TestPanicIsolation for a panic raised
// where the engine runs the domain: inside Expand, with the cycle shared
// out to SimWorkers goroutines.  It used to escape on a pool goroutine and
// kill the process; the job must fail, be counted, and leave the worker
// serving.
func TestPanicIsolationSimWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // the engine's pool is not started on one P
	cfg := Config{Workers: 1, SimWorkers: 2, Runners: map[string]Runner{
		"late-bomb": func(ctx context.Context, spec JobSpec, opts simd.Options, env RunEnv) (metrics.Stats, error) {
			if opts.Workers != 2 {
				t.Errorf("runner got Workers=%d, want the configured 2", opts.Workers)
			}
			sch, err := simd.ParseScheme[synthetic.Node](spec.Scheme)
			if err != nil {
				return metrics.Stats{}, err
			}
			dom := &lateBomb{Tree: synthetic.New(400_000, 9)}
			dom.after.Store(150_000)
			return simd.RunContext[synthetic.Node](ctx, dom, sch, opts)
		},
	}}
	s, ts := testServer(t, cfg)
	bad, _ := postJob(t, ts, `{"domain":"late-bomb","scheme":"GP-DK","p":4096}`)
	fin := waitTerminal(t, ts, bad.ID)
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, "boom in Expand") {
		t.Fatalf("panicking job finished %q (%s), want failed with the panic value", fin.Status, fin.Error)
	}
	if got := s.ctr.panics.Load(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	ok, _ := postJob(t, ts, queensSpec)
	if fin := waitTerminal(t, ts, ok.ID); fin.Status != StatusDone {
		t.Errorf("post-panic job finished %q: %s", fin.Status, fin.Error)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	cold, _ := postJob(t, ts, queensSpec)
	waitTerminal(t, ts, cold.ID)
	postJob(t, ts, queensSpec) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{
		"jobs_done_total":    2,
		"cache_hits_total":   1,
		"cache_misses_total": 1,
		"cache_entries":      1,
		"queue_capacity":     64,
		"workers":            2,
	}
	for k, want := range checks {
		got, ok := m[k].(float64)
		if !ok || int64(got) != int64(want) {
			t.Errorf("metrics[%s] = %v, want %v", k, m[k], want)
		}
	}
	if _, ok := m["scheme_latency_ms"].(map[string]any)["GP-DK"]; !ok {
		t.Error("no GP-DK latency histogram")
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	j, _ := postJob(t, ts, queensSpec)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if fin := getJob(t, ts, j.ID); fin.Status != StatusDone {
		t.Errorf("job not drained: %q (%s)", fin.Status, fin.Error)
	}
	// Submissions after drain are refused.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(bigSyntheticSpec("")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit: status %d, want 503", resp.StatusCode)
	}
}

// TestQueuedPrecedesTerminal submits thousands of tiny unique jobs to two
// idle workers, one at a time from each of two clients, so a worker
// usually takes a job the instant it is pushed: every job's log must
// still start with its queued event and end with its one terminal event.
// A queued event appended after the push can land after the terminal one.
func TestQueuedPrecedesTerminal(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	})
	const clients, each = 2, 2500
	var (
		wg  sync.WaitGroup
		bad atomic.Int64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seed := uint64(1 + c*each + i)
				spec := JobSpec{Domain: "synthetic", Scheme: "GP-S0.90", P: 4, Synthetic: &SyntheticSpec{W: 5, Seed: seed}}
				canonical, err := Canonicalize(spec, s.domains)
				if err != nil {
					t.Error(err)
					return
				}
				h, rf := s.SubmitCanonical(context.Background(), canonical, CacheKey(canonical), DefaultTenant, 1)
				if rf != nil {
					t.Errorf("seed %d refused: %+v", seed, rf)
					return
				}
				evs := terminalLog(t, h.(*job))
				if evs == nil {
					return
				}
				terminals := 0
				for _, ev := range evs {
					if ev.Terminal {
						terminals++
					}
				}
				if evs[0].Status != StatusQueued || !evs[len(evs)-1].Terminal || terminals != 1 {
					if bad.Add(1) <= 3 {
						t.Errorf("seed %d: log %+v, want queued first and the one terminal event last", seed, evs)
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		t.Errorf("%d of %d logs out of order", n, clients*each)
	}
}

// terminalLog waits for h's terminal event and returns h's whole log, nil
// (having failed t) if none comes.
func terminalLog(t *testing.T, h *job) []JobEvent {
	deadline := time.After(10 * time.Second)
	for {
		evs, wake := h.eventsSince(0)
		for _, ev := range evs {
			if ev.Terminal {
				return evs
			}
		}
		select {
		case <-wake:
		case <-deadline:
			t.Errorf("job %s: no terminal event in %+v", h.ID(), evs)
			return nil
		}
	}
}

// gate is a domain whose runs each record their P, in the order the pool
// takes them, and then hold their worker until release.
type gate struct {
	open chan struct{}
	once sync.Once
	mu   sync.Mutex
	ran  []int
}

// gatedNode boots a node running cfg with the "gate" domain installed; the
// gate opens at cleanup, before the node shuts down.
func gatedNode(t *testing.T, cfg Config) (*Server, *gate) {
	g := &gate{open: make(chan struct{})}
	cfg.Runners = map[string]Runner{"gate": func(ctx context.Context, spec JobSpec, _ simd.Options, _ RunEnv) (metrics.Stats, error) {
		g.mu.Lock()
		g.ran = append(g.ran, spec.P)
		g.mu.Unlock()
		select {
		case <-ctx.Done():
			return metrics.Stats{Cancelled: true}, context.Cause(ctx)
		case <-g.open:
			return metrics.Stats{P: spec.P, W: 1}, nil
		}
	}}
	s, _ := testServer(t, cfg)
	t.Cleanup(g.release)
	return s, g
}

func (g *gate) release() { g.once.Do(func() { close(g.open) }) }

// runs returns the P of every run started so far, in start order.
func (g *gate) runs() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.ran)
}

// submit offers tenant's gate job of the given P (which names it) to s.
func (g *gate) submit(t *testing.T, s *Server, tenant string, p int) (Job, *Refusal) {
	t.Helper()
	spec, err := Canonicalize(JobSpec{Domain: "gate", Scheme: "GP-DK", P: p}, s.domains)
	if err != nil {
		t.Fatal(err)
	}
	return s.SubmitCanonical(context.Background(), spec, CacheKey(spec), tenant, 1)
}

// waitRuns waits until n runs have started.
func (g *gate) waitRuns(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); len(g.runs()) < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d runs started, want %d", len(g.runs()), n)
		}
	}
}

// TestQueueFullNamesItsCapacity holds a full queue's 429 and /metrics to
// the capacity of the queue the node runs, not Config.QueueSize.
func TestQueueFullNamesItsCapacity(t *testing.T) {
	s, g := gatedNode(t, Config{Workers: 1, Scheduler: NewDRR(2)})
	if _, rf := g.submit(t, s, "a", 1); rf != nil {
		t.Fatalf("first submit refused: %+v", rf)
	}
	g.waitRuns(t, 1)
	for p := 2; p <= 3; p++ {
		if _, rf := g.submit(t, s, "a", p); rf != nil {
			t.Fatalf("submit %d refused below capacity: %+v", p, rf)
		}
	}
	_, rf := g.submit(t, s, "a", 4)
	if rf == nil || rf.Code != http.StatusTooManyRequests || rf.Message != "queue full (2 jobs); retry later" {
		t.Fatalf("fourth submit: %+v, want 429 queue full (2 jobs)", rf)
	}
	m := s.Metrics()
	if m["queue_capacity"] != 2 || m["queue_depth"] != 2 {
		t.Errorf("queue_capacity %v, queue_depth %v; want 2, 2", m["queue_capacity"], m["queue_depth"])
	}
}

// TestBareNodeRotatesTenants holds a node built without a Scheduler to the
// DRR's rotation: behind a busy worker, tenant a's three jobs then b's one
// are dispatched a, b, a, a.
func TestBareNodeRotatesTenants(t *testing.T) {
	s, g := gatedNode(t, Config{Workers: 1})
	var jobs []Job
	for _, sub := range []struct {
		tenant string
		p      int
	}{{"x", 1}, {"a", 2}, {"a", 3}, {"a", 4}, {"b", 5}} {
		j, rf := g.submit(t, s, sub.tenant, sub.p)
		if rf != nil {
			t.Fatalf("submit %s/%d refused: %+v", sub.tenant, sub.p, rf)
		}
		jobs = append(jobs, j)
		if sub.p == 1 {
			g.waitRuns(t, 1) // the worker holds x's job while the rest queue
		}
	}
	g.release()
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("job %s never finished", j.ID())
		}
	}
	// x, then a, b, a, a.
	if got, want := g.runs(), []int{1, 2, 5, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("dispatched P %v, want %v", got, want)
	}
}

// TestSubmitRacesShutdown submits unique jobs from eight goroutines while
// Shutdown runs: every job the node accepted has finished by the time
// Shutdown returns, every refusal is a 503 (closed) or a 429 (full), and
// the queue ends empty.
func TestSubmitRacesShutdown(t *testing.T) {
	s, err := New(Config{Workers: 2, QueueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var (
		wg       sync.WaitGroup
		seed     atomic.Uint64
		accepted atomic.Int64
		mu       sync.Mutex
		handles  []Job
		stopped  = make(chan struct{}) // Shutdown has returned
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopped:
					return
				default:
				}
				spec := JobSpec{Domain: "synthetic", Scheme: "GP-S0.90", P: 4, Synthetic: &SyntheticSpec{W: 5, Seed: seed.Add(1)}}
				canonical, err := Canonicalize(spec, s.domains)
				if err != nil {
					t.Error(err)
					return
				}
				h, rf := s.SubmitCanonical(context.Background(), canonical, CacheKey(canonical), fmt.Sprint("t", c%3), 1)
				switch {
				case rf == nil:
					accepted.Add(1)
					mu.Lock()
					handles = append(handles, h)
					mu.Unlock()
				case rf.Code == http.StatusServiceUnavailable:
					return
				case rf.Code != http.StatusTooManyRequests:
					t.Errorf("refusal %+v, want 503 or 429", rf)
					return
				}
			}
		}()
	}
	for accepted.Load() < 64 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err = s.Shutdown(ctx)
	close(stopped)
	wg.Wait()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// No worker outlives Shutdown, so a job not finished now never will be.
	if d := s.Metrics()["queue_depth"]; d != 0 {
		t.Errorf("queue_depth %v after Shutdown, want 0", d)
	}
	unfinished := 0
	for _, h := range handles {
		if h.Status() != StatusDone {
			if unfinished++; unfinished <= 3 {
				t.Errorf("accepted job %s is %q after Shutdown returned, want done", h.ID(), h.Status())
			}
		}
	}
	t.Logf("%d jobs accepted, %d not run", len(handles), unfinished)
}
