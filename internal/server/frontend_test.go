package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/simd"
)

// startNode boots a node built from cfg alone behind an httptest listener
// and returns its frontend.
func startNode(t *testing.T, cfg Config) (*frontend, *httptest.Server) {
	t.Helper()
	s, ts := testServer(t, cfg)
	return s.front, ts
}

// gatedRunner is a domain that blocks until release closes, counting its
// invocations — the probe for "exactly one engine run".
func gatedRunner(runs *atomic.Int64, release <-chan struct{}) Runner {
	return func(ctx context.Context, spec JobSpec, opts simd.Options, env RunEnv) (metrics.Stats, error) {
		runs.Add(1)
		select {
		case <-ctx.Done():
			return metrics.Stats{Cancelled: true}, context.Cause(ctx)
		case <-release:
			return metrics.Stats{P: spec.P, W: 1}, nil
		}
	}
}

// TestSingleFlightCollapse is the issue's acceptance scenario: 100
// concurrent identical submissions produce exactly one engine run, and
// all 100 waiters receive byte-identical response bodies.
func TestSingleFlightCollapse(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	f, ts := startNode(t,
		Config{Workers: 2, Runners: map[string]Runner{"block": gatedRunner(&runs, release)}})

	const n = 100
	const spec = `{"domain":"block","scheme":"GP-DK","p":8}`
	type reply struct {
		code      int
		collapsed bool
		body      []byte
		err       error
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(spec))
			if err != nil {
				replies[i] = reply{err: err}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			replies[i] = reply{
				code:      resp.StatusCode,
				collapsed: resp.Header.Get("X-Collapsed") == "1",
				body:      body,
				err:       err,
			}
		}(i)
	}

	// Hold the gate until every submission has joined the flight, so
	// the collapse genuinely happens in flight rather than via the
	// result cache.
	deadline := time.Now().Add(10 * time.Second)
	for f.ctr.collapsed.Load() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d submissions collapsed before the deadline", f.ctr.collapsed.Load(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	once.Do(func() { close(release) })
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("engine ran %d times for %d identical submissions, want exactly 1", got, n)
	}
	if got := f.ctr.flights.Load(); got != 1 {
		t.Errorf("flights counter = %d, want 1", got)
	}
	if got := f.ctr.collapsed.Load(); got != n-1 {
		t.Errorf("collapsed counter = %d, want %d", got, n-1)
	}
	collapsed := 0
	for i, r := range replies {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, r.code, r.body)
		}
		if !bytes.Equal(r.body, replies[0].body) {
			t.Fatalf("request %d body differs from request 0:\n%s\nvs\n%s", i, r.body, replies[0].body)
		}
		if r.collapsed {
			collapsed++
		}
	}
	if collapsed != n-1 {
		t.Errorf("%d responses carry X-Collapsed, want %d", collapsed, n-1)
	}
}

// TestBatchSubmit covers POST /v1/jobs:batch: per-item verdicts in input
// order, in-batch collapsing, inline documents under wait, and the
// byte-identity of collapsed duplicates.
func TestBatchSubmit(t *testing.T) {
	_, ts := startNode(t, Config{Workers: 2, MaxBatch: 8})

	body := `{"wait": true, "jobs": [
		{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":500,"seed":7}},
		{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":500,"seed":7}},
		{"domain":"nope","scheme":"GP-DK","p":8}
	]}`
	resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var br struct {
		Accepted  int `json:"accepted"`
		Rejected  int `json:"rejected"`
		Collapsed int `json:"collapsed"`
		Items     []struct {
			Index     int             `json:"index"`
			Code      int             `json:"code"`
			Error     string          `json:"error"`
			ID        string          `json:"id"`
			Status    Status          `json:"status"`
			Collapsed bool            `json:"collapsed"`
			Job       json.RawMessage `json:"job"`
		} `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Accepted != 2 || br.Rejected != 1 {
		t.Fatalf("accepted/rejected = %d/%d, want 2/1", br.Accepted, br.Rejected)
	}
	it := br.Items
	if len(it) != 3 {
		t.Fatalf("%d items, want 3", len(it))
	}
	if it[0].Code != http.StatusOK || it[0].Status != StatusDone {
		t.Fatalf("item 0: code %d status %q, want 200 done (%s)", it[0].Code, it[0].Status, it[0].Error)
	}
	if it[2].Code != http.StatusBadRequest || it[2].Error == "" {
		t.Fatalf("item 2: code %d error %q, want 400 with message", it[2].Code, it[2].Error)
	}
	// The duplicate either collapsed onto item 0's flight or (if item 0
	// finished first) came back as a cache hit; in the collapsed case
	// the inline documents must be byte-identical.
	if it[1].Code != http.StatusOK {
		t.Fatalf("item 1: code %d, want 200", it[1].Code)
	}
	if it[1].Collapsed {
		if br.Collapsed != 1 {
			t.Errorf("collapsed tally %d, want 1", br.Collapsed)
		}
		if !bytes.Equal(it[0].Job, it[1].Job) {
			t.Fatalf("collapsed duplicate's document differs:\n%s\nvs\n%s", it[0].Job, it[1].Job)
		}
		if it[1].ID != it[0].ID {
			t.Errorf("collapsed duplicate id %q != original %q", it[1].ID, it[0].ID)
		}
	}

	// Over-limit and empty batches are refused outright.
	for _, bad := range []string{
		`{"jobs": []}`,
		`{"jobs": [` + strings.Repeat(`{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":100}},`, 8) +
			`{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":100}}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad batch accepted with %d", resp.StatusCode)
		}
	}
}

// TestTenantQuota pins the per-tenant outstanding-jobs bound: the tenant
// at quota gets 429 with a Retry-After header while other tenants are
// unaffected, and finishing a job frees the slot.
func TestTenantQuota(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	_, ts := startNode(t,
		Config{Workers: 2, Runners: map[string]Runner{"block": gatedRunner(&runs, release)}, TenantQuota: 1})

	submit := func(tenant string, p int) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
			strings.NewReader(fmt.Sprintf(`{"domain":"block","scheme":"GP-DK","p":%d}`, p)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := submit("t1", 2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("t1 first submit: %d", resp.StatusCode)
	}
	over := submit("t1", 4) // distinct spec, same tenant: over quota
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("t1 over-quota submit: %d, want 429", over.StatusCode)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	if resp := submit("t2", 4); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("t2 submit blocked by t1's quota: %d", resp.StatusCode)
	}
	if got := metric(t, ts.URL, "traffic_quota_rejections_total"); got != 1 {
		t.Errorf("quota rejection counter = %v, want 1", got)
	}

	once.Do(func() { close(release) })
	// The finished job releases t1's slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Admitted: 202, or 200 when a free worker finished the job
		// before the answer was written.
		resp := submit("t1", 8)
		if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("t1's quota slot never freed (last status %d)", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    int64
	typ   string
	data  JobEvent
	lines string
}

// readSSE consumes an event stream until it ends, returning the parsed
// events (comments are skipped).
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.typ != "" || cur.id != 0 {
				events = append(events, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, ":"):
			// comment / heartbeat
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.id)
		case strings.HasPrefix(line, "event: "):
			cur.typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.lines = strings.TrimPrefix(line, "data: ")
			if err := json.Unmarshal([]byte(cur.lines), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", cur.lines, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("SSE read: %v", err)
	}
	return events
}

// TestSSEStreamAndResume runs a real synthetic job, consumes its full
// event stream, then reconnects with Last-Event-ID and checks the
// resumed stream picks up exactly after the cursor and reaches the same
// terminal event.
func TestSSEStreamAndResume(t *testing.T) {
	_, ts := startNode(t, Config{Workers: 2, ProgressEvery: 50})

	spec := `{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":20000,"seed":7}}`
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stream, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := readSSE(t, stream.Body)
	if len(events) < 3 {
		t.Fatalf("only %d events; want status + progress ticks + terminal", len(events))
	}
	var last int64
	progress := 0
	for _, ev := range events {
		if ev.id <= last {
			t.Fatalf("sequence not increasing: %d after %d", ev.id, last)
		}
		last = ev.id
		if ev.typ == EventProgress {
			progress++
			if e := ev.data.Efficiency; e <= 0 || e > 1 || ev.data.IdleOverLP < 0 {
				t.Errorf("progress event %s: efficiency %v, idle_over_lp %v", ev.lines, e, ev.data.IdleOverLP)
			}
		}
	}
	if progress == 0 {
		t.Error("no progress events in the stream")
	}
	fin := events[len(events)-1]
	if !fin.data.Terminal || fin.data.Status != StatusDone {
		t.Fatalf("final event %+v, want terminal done", fin.data)
	}
	if e := fin.data.Efficiency; e <= 0 || e > 1 {
		t.Errorf("terminal event efficiency %v, want the run's E in (0, 1]", e)
	}

	// Resume from the middle: the stream must continue at mid+1.
	mid := events[len(events)/2].id
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+doc.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprint(mid))
	resumed, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Body.Close()
	tail := readSSE(t, resumed.Body)
	if len(tail) == 0 {
		t.Fatal("resumed stream is empty")
	}
	if tail[0].id != mid+1 {
		t.Fatalf("resumed stream starts at %d, want %d", tail[0].id, mid+1)
	}
	if fin2 := tail[len(tail)-1]; !fin2.data.Terminal || fin2.id != fin.id {
		t.Fatalf("resumed stream ends at %+v, want the same terminal event %d", fin2.data, fin.id)
	}
	if got := metric(t, ts.URL, "traffic_sse_resumes_total"); got != 1 {
		t.Errorf("resume counter = %v, want 1", got)
	}

	// Error paths: unknown id, malformed cursor.
	if resp, err := http.Get(ts.URL + "/v1/jobs/zzz/events"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events?last_event_id=bogus"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
}

// TestCostUnitsClamp pins the range a job's DRR cost can take, [1/16,
// 16]: server's TestDRRSingleTenantIsFIFO holds a single tenant to push
// order across exactly that range.
func TestCostUnitsClamp(t *testing.T) {
	lo, hi := estimate{}.CostUnits(), estimate{W: math.MaxFloat64}.CostUnits()
	if lo != 1.0/16 || hi != 16 {
		t.Fatalf("CostUnits clamps to [%g, %g], want [1/16, 16]", lo, hi)
	}
}

// TestEstimateEndpoint checks POST /v1/estimate prices specs without
// running them: synthetic W is exact, queens is a model prediction, and
// both yield positive cost units for DRR admission.
func TestEstimateEndpoint(t *testing.T) {
	_, ts := startNode(t, Config{Workers: 1})

	post := func(spec string) estimateResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("estimate status %d: %s", resp.StatusCode, b)
		}
		var er estimateResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		return er
	}

	syn := post(`{"domain":"synthetic","scheme":"GP-DK","p":64,"synthetic":{"w":20000,"seed":7}}`)
	if !syn.Exact || syn.PredictedW != 20000 {
		t.Fatalf("synthetic estimate %+v, want exact W=20000", syn)
	}
	if syn.CostUnits <= 0 || syn.PredictedCycles <= 0 || syn.ModelEfficiency <= 0 || syn.ModelEfficiency > 1 {
		t.Fatalf("synthetic estimate %+v has out-of-range fields", syn)
	}
	qn := post(`{"domain":"queens","scheme":"GP-S0.90","p":64,"queens":{"n":10}}`)
	if qn.Exact || qn.PredictedW <= 0 {
		t.Fatalf("queens estimate %+v, want inexact positive prediction", qn)
	}
	// No jobs were created by pricing.
	if resp, err := http.Get(ts.URL + "/v1/jobs"); err == nil {
		var list struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&list) //lint:allow errdrop shape-only check
		resp.Body.Close()
		if len(list.Jobs) != 0 {
			t.Errorf("estimate created %d jobs", len(list.Jobs))
		}
	}
}

// TestMetricsMerged checks GET /metrics keeps the wrapped server's
// document and adds the traffic counters and per-tenant DRR stats.
func TestMetricsMerged(t *testing.T) {
	_, ts := startNode(t, Config{Workers: 1})
	spec := `{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":500,"seed":7}}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs?wait=1", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(mresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"queue_depth", "traffic_flights_total", "traffic_collapsed_total", "traffic_flights_open", "traffic_tenants"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("metrics document lacks %q", key)
		}
	}
	if got, ok := doc["traffic_flights_total"].(float64); !ok || got != 1 {
		t.Errorf("traffic_flights_total = %v, want 1", doc["traffic_flights_total"])
	}
	tenants, ok := doc["traffic_tenants"].(map[string]any)
	if !ok {
		t.Fatalf("traffic_tenants is %T", doc["traffic_tenants"])
	}
	if _, ok := tenants["acme"]; !ok {
		t.Errorf("traffic_tenants %v lacks the submitting tenant", tenants)
	}
}

// TestCachedSubmissionsIgnoreQuota hammers cached specs from one tenant
// whose quota is a single outstanding job.  A cache hit is finished before
// it is admitted, so none may be refused, none may open a flight or hold
// a quota slot, and none may leave a goroutine behind.  Two specs
// alternate: hits of one spec alone would hide a held slot by collapsing
// onto each other's flight, while a flight of the other spec holds the
// tenant's one slot.
func TestCachedSubmissionsIgnoreQuota(t *testing.T) {
	s, err := New(Config{Workers: 2, TenantQuota: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	f, h := s.front, s.Handler()
	submit := func(seed int) *httptest.ResponseRecorder {
		spec := fmt.Sprintf(`{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":500,"seed":%d}}`, 7+seed)
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", strings.NewReader(spec))
		req.Header.Set(TenantHeader, "t1")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	start := runtime.NumGoroutine()
	for seed := 0; seed < 2; seed++ {
		if rec := submit(seed); rec.Code != http.StatusOK {
			t.Fatalf("warm-up: %d %s", rec.Code, rec.Body)
		}
	}

	const clients, each = 8, 200
	var refused, other atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				switch rec := submit((c + i) % 2); rec.Code {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					refused.Add(1)
				default:
					other.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := refused.Load(); n != 0 {
		t.Errorf("%d of %d cache hits refused 429 under TenantQuota 1", n, clients*each)
	}
	if n := other.Load(); n != 0 {
		t.Errorf("%d of %d cache hits answered neither 200 nor 429", n, clients*each)
	}
	f.mu.Lock()
	flights := len(f.flights)
	f.mu.Unlock()
	if flights != 0 {
		t.Errorf("after the hits: %d open flights, want none", flights)
	}
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var m map[string]any
	if err := json.Unmarshal(mrec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if got := m["traffic_flights_total"]; got != 2.0 {
		t.Errorf("flights counter = %v, want 2 (the warm-ups' engine runs)", got)
	}
	// The runtime's finalizer goroutine counts while it runs a finalizer,
	// so the count gets a moment to settle.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > start && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > start {
		t.Errorf("%d goroutines after the hits, %d before", n, start)
	}
	// No hit held t1's one slot: a fresh engine spec, too big to finish
	// before it is answered, is admitted.
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":100000000,"seed":7}}`))
	req.Header.Set(TenantHeader, "t1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("fresh spec from t1 after the hits: %d %s, want 202", rec.Code, rec.Body)
	}
	var fresh struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &fresh); err != nil {
		t.Fatal(err)
	}
	del := httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+fresh.ID, nil)
	del.Header.Set(TenantHeader, "t1")
	h.ServeHTTP(httptest.NewRecorder(), del)
}

// metric reads one top-level number from base's /metrics document.
func metric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	v, _ := m[name].(float64)
	return v
}

// TestCollapsedDeleteKeepsOwnersRun has tenant b join tenant a's flight
// and then DELETE the job id the collapse handed it.  The run is a's: b's
// DELETE is refused 403 while it is live, a's ?wait=1 answer still comes
// back done, and once the job is terminal b's DELETE reports its final
// state like anyone's.
func TestCollapsedDeleteKeepsOwnersRun(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	_, ts := startNode(t, Config{Workers: 2, Runners: map[string]Runner{"block": gatedRunner(&runs, release)}})

	const spec = `{"domain":"block","scheme":"GP-DK","p":8}`
	do := func(method, url, tenant, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}
	owner := make(chan []byte, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs?wait=1", strings.NewReader(spec))
		if err != nil {
			owner <- nil
			return
		}
		req.Header.Set(TenantHeader, "a")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			owner <- nil
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		owner <- b
	}()
	for deadline := time.Now().Add(10 * time.Second); runs.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("tenant a's run never started")
		}
	}

	resp, body := do(http.MethodPost, ts.URL+"/v1/jobs", "b", spec)
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get(collapsedHeader) != "1" {
		t.Fatalf("tenant b's submission: %d collapsed=%q, want 202 collapsed: %s", resp.StatusCode, resp.Header.Get(collapsedHeader), body)
	}
	var joined struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &joined); err != nil {
		t.Fatal(err)
	}
	if resp, body := do(http.MethodDelete, ts.URL+"/v1/jobs/"+joined.ID, "b", ""); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("tenant b's DELETE of a's live job: %d %s, want 403", resp.StatusCode, body)
	}

	once.Do(func() { close(release) })
	var doc struct {
		ID     string `json:"id"`
		Status Status `json:"status"`
		Tenant string `json:"tenant"`
	}
	if err := json.Unmarshal(<-owner, &doc); err != nil {
		t.Fatalf("tenant a's answer: %v", err)
	}
	if doc.ID != joined.ID || doc.Status != StatusDone || doc.Tenant != "a" {
		t.Fatalf("tenant a's answer %+v, want its job %s done", doc, joined.ID)
	}
	resp, body = do(http.MethodDelete, ts.URL+"/v1/jobs/"+joined.ID, "b", "")
	if err := json.Unmarshal(body, &doc); err != nil || resp.StatusCode != http.StatusOK || doc.Status != StatusDone {
		t.Fatalf("tenant b's DELETE of the finished job: %d %s, want 200 done", resp.StatusCode, body)
	}
}
