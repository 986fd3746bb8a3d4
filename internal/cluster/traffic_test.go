package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/server"
	"simdtree/internal/simd"
)

// startTrafficNode boots a node the way simdserve does in production,
// built from cfg alone, behind its one front door.  wrap, when set, sits
// in front of the node's handler.
func startTrafficNode(t *testing.T, cfg server.Config, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("node shutdown: %v", err)
		}
	})
	return ts.URL
}

// fleetBatchWire mirrors the coordinator's batch response for tests.
type fleetBatchWire struct {
	Accepted  int `json:"accepted"`
	Rejected  int `json:"rejected"`
	Collapsed int `json:"collapsed"`
	Items     []struct {
		Index      int    `json:"index"`
		Code       int    `json:"code"`
		Error      string `json:"error"`
		ID         string `json:"id"`
		Status     string `json:"status"`
		Collapsed  bool   `json:"collapsed"`
		RetryAfter int    `json:"retry_after"`
	} `json:"items"`
}

// blockingRunner counts invocations and blocks until release closes.
func blockingRunner(runs *atomic.Int64, release <-chan struct{}) server.Runner {
	return func(ctx context.Context, spec server.JobSpec, opts simd.Options, env server.RunEnv) (metrics.Stats, error) {
		runs.Add(1)
		select {
		case <-ctx.Done():
			return metrics.Stats{Cancelled: true}, context.Cause(ctx)
		case <-release:
			return metrics.Stats{P: spec.P, W: 1}, nil
		}
	}
}

// TestFleetCollapseAndBatch covers the coordinator's traffic layer: an
// identical in-flight spec collapses ring-wide onto one routed job (for
// single submissions and batch items alike), batches return per-item
// verdicts, and the collapse counter surfaces in /metrics.
func TestFleetCollapseAndBatch(t *testing.T) {
	ctx := context.Background()
	var runs atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })

	nodeCfg := server.Config{Workers: 1, Runners: map[string]server.Runner{
		"gatesim":  blockingRunner(&runs, release),
		"fleetsim": fleetRunner(nil),
	}}
	urls := []string{startTrafficNode(t, nodeCfg, nil), startTrafficNode(t, nodeCfg, nil)}

	c, err := New(Config{
		Nodes:          urls,
		OverflowDepth:  1000,
		ExtraDomains:   []string{"gatesim", "fleetsim"},
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background()) //lint:allow errdrop no loops are running
	c.ProbeOnce(ctx)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	const gated = `{"domain":"gatesim","scheme":"GP-DK","p":8}`
	first, code := postJSONAs[fleetWireJob](t, front.URL+"/v1/jobs", gated)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}

	// The identical spec must collapse onto the same fleet job, marked
	// by the X-Collapsed header.
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(gated))
	if err != nil {
		t.Fatal(err)
	}
	var dup fleetWireJob
	if err := json.NewDecoder(resp.Body).Decode(&dup); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Collapsed") != "1" {
		t.Error("duplicate submission not marked X-Collapsed")
	}
	if dup.ID != first.ID {
		t.Fatalf("duplicate routed to fleet job %s, want collapse onto %s", dup.ID, first.ID)
	}

	// Batch: a collapsing duplicate, a fresh job, and a bad domain.
	batch := fmt.Sprintf(`{"jobs": [%s, %s, {"domain":"nope","scheme":"GP-DK","p":8}]}`,
		gated, fleetSpec)
	br, code := postJSONAs[fleetBatchWire](t, front.URL+"/v1/jobs:batch", batch)
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if br.Accepted != 2 || br.Rejected != 1 || br.Collapsed != 1 {
		t.Fatalf("batch tallies accepted=%d rejected=%d collapsed=%d, want 2/1/1", br.Accepted, br.Rejected, br.Collapsed)
	}
	if !br.Items[0].Collapsed || br.Items[0].ID != first.ID {
		t.Errorf("batch item 0 = %+v, want collapse onto %s", br.Items[0], first.ID)
	}
	// 200: a free worker already finished it.
	if code := br.Items[1].Code; code != http.StatusAccepted && code != http.StatusOK ||
		getJSONAs[fleetWireJob](t, front.URL+"/v1/jobs/"+br.Items[1].ID).Node == "" {
		t.Errorf("batch item 1 = %+v, want 202 or 200 with a routed node", br.Items[1])
	}
	if br.Items[2].Code != http.StatusBadRequest || br.Items[2].Error == "" {
		t.Errorf("batch item 2 = %+v, want 400 with message", br.Items[2])
	}

	// The accepted job may still be queued on its node: wait for the
	// worker to enter the gated runner before counting runs.
	for deadline := time.Now().Add(5 * time.Second); runs.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("gated engine ran %d times across 3 identical submissions, want 1", got)
	}

	once.Do(func() { close(release) })
	fin := waitFleetTerminal(t, front.URL, first.ID)
	if fin.Status != "done" {
		t.Fatalf("gated job finished %q", fin.Status)
	}

	// After the flight is terminal, the collapse entry lapses: the same
	// spec now opens a new fleet job (served from the node's cache).
	again, _ := postJSONAs[fleetWireJob](t, front.URL+"/v1/jobs", gated)
	if again.ID == first.ID {
		t.Error("terminal fleet job still collapsing new submissions")
	}

	m := getJSONAs[map[string]any](t, front.URL+"/metrics")
	if got, _ := m["traffic_collapsed_total"].(float64); got != 2 {
		t.Errorf("traffic_collapsed_total = %v, want 2", m["traffic_collapsed_total"])
	}
}

// TestFleetSSEProxy streams a finished job's progress events through the
// coordinator and resumes with Last-Event-ID, checking the proxy
// preserves the node's stream and cursor semantics.
func TestFleetSSEProxy(t *testing.T) {
	ctx := context.Background()
	url := startTrafficNode(t, server.Config{Workers: 1, ProgressEvery: 50}, nil)
	c, err := New(Config{
		Nodes:          []string{url},
		OverflowDepth:  1000,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background()) //lint:allow errdrop no loops are running
	c.ProbeOnce(ctx)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	spec := `{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":20000,"seed":7}}`
	sub, code := postJSONAs[fleetWireJob](t, front.URL+"/v1/jobs", spec)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	waitFleetTerminal(t, front.URL, sub.ID)

	type frame struct {
		id       int64
		terminal bool
	}
	readStream := func(lastEventID string) []frame {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, front.URL+"/v1/jobs/"+sub.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("events content type %q", ct)
		}
		var frames []frame
		var cur frame
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if cur.id != 0 {
					frames = append(frames, cur)
				}
				cur = frame{}
			case strings.HasPrefix(line, "id: "):
				fmt.Sscanf(line, "id: %d", &cur.id)
			case strings.HasPrefix(line, "data: "):
				cur.terminal = strings.Contains(line, `"terminal":true`)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("stream read: %v", err)
		}
		return frames
	}

	full := readStream("")
	if len(full) < 3 {
		t.Fatalf("only %d events through the proxy", len(full))
	}
	for i := 1; i < len(full); i++ {
		if full[i].id <= full[i-1].id {
			t.Fatalf("ids not increasing: %d after %d", full[i].id, full[i-1].id)
		}
	}
	if !full[len(full)-1].terminal {
		t.Fatal("stream did not end with the terminal event")
	}

	mid := full[len(full)/2].id
	tail := readStream(fmt.Sprint(mid))
	if len(tail) == 0 || tail[0].id != mid+1 {
		t.Fatalf("resumed stream starts at %v, want %d", tail, mid+1)
	}
	if tail[len(tail)-1].id != full[len(full)-1].id {
		t.Fatalf("resumed stream ends at %d, want %d", tail[len(tail)-1].id, full[len(full)-1].id)
	}

	// Unknown fleet id is refused before any proxying.
	resp, err := http.Get(front.URL + "/v1/jobs/zzz/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: %d", resp.StatusCode)
	}
}

// TestStreamEndsWhenSubscriberLeaves pins what an event stream owes the
// server once its subscriber goes away: the handler returns — and behind
// the coordinator, so does the node's stream it proxies — instead of
// holding a goroutine and a connection until the job ends.  Each stream
// is of a job that does not finish during the test, and the subscriber
// cancels right after its first event.
func TestStreamEndsWhenSubscriberLeaves(t *testing.T) {
	// streamEnds wraps a handler so every /events request it serves
	// reports its return on the channel.
	streamEnds := func(ended chan<- string) func(http.Handler) http.Handler {
		return func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				h.ServeHTTP(w, r)
				if strings.HasSuffix(r.URL.Path, "/events") {
					ended <- r.URL.Path
				}
			})
		}
	}
	subscribe := func(t *testing.T, url string) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events status %d", resp.StatusCode)
		}
		br := bufio.NewReader(resp.Body)
		for sawID := false; ; {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("stream ended before its first event: %v", err)
			}
			sawID = sawID || strings.HasPrefix(line, "id: ")
			if sawID && line == "\n" {
				return
			}
		}
	}
	within := func(t *testing.T, ended <-chan string, what string) bool {
		t.Helper()
		select {
		case <-ended:
			return true
		case <-time.After(2 * time.Second):
			t.Errorf("%s still streaming 2s after its subscriber left", what)
			return false
		}
	}

	t.Run("StreamEvents", func(t *testing.T) {
		l := new(server.EventLog)
		l.Append(server.JobEvent{Type: server.EventStatus, Status: server.StatusRunning})
		ended := make(chan string, 1)
		ts := httptest.NewServer(streamEnds(ended)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			server.StreamEvents(r.Context(), w, 0, l.Since, time.Hour)
		})))
		defer ts.Close()
		subscribe(t, ts.URL+"/v1/jobs/j/events")
		if !within(t, ended, "StreamEvents") {
			l.Append(server.JobEvent{Type: server.EventStatus, Status: server.StatusDone, Terminal: true})
		}
	})

	t.Run("proxy", func(t *testing.T) {
		var runs atomic.Int64
		release := make(chan struct{})
		nodeEnded := make(chan string, 1)
		url := startTrafficNode(t, server.Config{Workers: 1, Runners: map[string]server.Runner{
			"gatesim": blockingRunner(&runs, release),
		}}, streamEnds(nodeEnded))
		c, err := New(Config{
			Nodes:          []string{url},
			OverflowDepth:  1000,
			ExtraDomains:   []string{"gatesim"},
			RequestTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown(context.Background()) //lint:allow errdrop no loops are running
		c.ProbeOnce(context.Background())
		frontEnded := make(chan string, 1)
		front := httptest.NewServer(streamEnds(frontEnded)(c.Handler()))
		defer front.Close()
		defer close(release) // first: a stream that did not end does once the job does

		sub, code := postJSONAs[fleetWireJob](t, front.URL+"/v1/jobs", `{"domain":"gatesim","scheme":"GP-DK","p":8}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
		subscribe(t, front.URL+"/v1/jobs/"+sub.ID+"/events")
		within(t, frontEnded, "the coordinator's proxy")
		within(t, nodeEnded, "the node's stream behind the proxy")
	})
}

// TestFleetWaitCollapse: through the coordinator, concurrent identical
// ?wait=1 submissions share one engine run fleet-wide and all receive the
// one terminal document, byte for byte, the moment sync observes it.
func TestFleetWaitCollapse(t *testing.T) {
	ctx := context.Background()
	var runs atomic.Int64
	release := make(chan struct{})
	var once sync.Once

	nodeCfg := server.Config{Workers: 1, Runners: map[string]server.Runner{"gatesim": blockingRunner(&runs, release)}}
	c, err := New(Config{
		Nodes:          []string{startTrafficNode(t, nodeCfg, nil), startTrafficNode(t, nodeCfg, nil)},
		OverflowDepth:  1000,
		ExtraDomains:   []string{"gatesim"},
		RequestTimeout: 5 * time.Second,
		SyncInterval:   20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background()) //lint:allow errdrop the sync loop stops with it
	c.ProbeOnce(ctx)
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	defer once.Do(func() { close(release) }) // first: the waiters return once the job does

	const n = 20
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
			resp, err := http.Post(front.URL+"/v1/jobs?wait=1", "application/json",
				strings.NewReader(`{"domain":"gatesim","scheme":"GP-DK","p":8}`))
			if err != nil {
				replies[i] = reply{err: err}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			replies[i] = reply{resp.StatusCode, resp.Header.Get("X-Collapsed") == "1", body, err}
		}(i)
	}

	// Hold the run until every submission has joined the flight.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		m := getJSONAs[map[string]any](t, front.URL+"/metrics")
		if got, _ := m["traffic_collapsed_total"].(float64); got == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("traffic_collapsed_total = %v before the deadline, want %d", m["traffic_collapsed_total"], n-1)
		}
	}
	once.Do(func() { close(release) })
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("engine ran %d times fleet-wide for %d identical submissions, want 1", got, n)
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
	var doc fleetWireJob
	if err := json.Unmarshal(replies[0].body, &doc); err != nil || doc.Status != "done" || len(doc.Job) == 0 {
		t.Errorf("shared reply %s: want a done fleet envelope around the node's document (%v)", replies[0].body, err)
	}
}

// TestFleetAdmitDoesNotSerialize: a submission stuck on its ring home
// holds up no other.  Spec A's home holds POST /v1/jobs open; spec B,
// homed on the other node, must still be answered within a second.
func TestFleetAdmitDoesNotSerialize(t *testing.T) {
	ctx := context.Background()
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		case "/metrics":
			server.WriteJSON(w, http.StatusOK, nodeMetrics{QueueCapacity: 64})
		case "/v1/jobs":
			arrived <- struct{}{}
			select {
			case <-release:
			case <-r.Context().Done():
			}
			server.WriteError(w, http.StatusServiceUnavailable, "server is shutting down")
		default:
			http.NotFound(w, r)
		}
	}))
	defer stuck.Close()
	other := startTrafficNode(t, server.Config{Workers: 1}, nil)

	c, err := New(Config{Nodes: []string{stuck.URL, other}, OverflowDepth: 1000, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background()) //lint:allow errdrop no loops are running
	c.ProbeOnce(ctx)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	// specHomedOn finds a synthetic spec whose ring home is node.
	specHomedOn := func(node string) string {
		for seed := 1; seed < 1000; seed++ {
			spec := fmt.Sprintf(`{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":20000,"seed":%d}}`, seed)
			var js server.JobSpec
			if err := json.Unmarshal([]byte(spec), &js); err != nil {
				t.Fatal(err)
			}
			canonical, err := c.CanonicalizeSpec(js)
			if err != nil {
				t.Fatal(err)
			}
			if home, _, err := c.route(server.CacheKey(canonical)); err == nil && home == node {
				return spec
			}
		}
		t.Fatalf("no spec homed on %s", node)
		return ""
	}
	a, b := specHomedOn(stuck.URL), specHomedOn(other)

	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		resp, err := http.Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(a))
		if err == nil {
			resp.Body.Close()
		}
	}()
	defer func() {
		close(release) // A's home answers 503, and A goes to its alternate
		<-aDone
	}()
	<-arrived

	start := time.Now()
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// 200: B's free worker already finished it.
	code := resp.StatusCode
	if took := time.Since(start); code != http.StatusAccepted && code != http.StatusOK || took > time.Second {
		t.Errorf("spec B answered %d after %v while A was stuck on its home, want 202 or 200 within 1s", code, took)
	}
}

// TestFleetCollapsedDeleteKeepsOwnersRun is the node's
// TestCollapsedDeleteKeepsOwnersRun through the coordinator, which
// forwards a DELETE's X-Tenant to the owning node: tenant b, collapsed
// onto tenant a's fleet job, is refused 403 and leaves the run alone,
// while a's own DELETE cancels it.
func TestFleetCollapsedDeleteKeepsOwnersRun(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	defer close(release)
	nodeCfg := server.Config{Workers: 1, Runners: map[string]server.Runner{"gatesim": blockingRunner(&runs, release)}}
	c, err := New(Config{
		Nodes:          []string{startTrafficNode(t, nodeCfg, nil)},
		ExtraDomains:   []string{"gatesim"},
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background()) //lint:allow errdrop no loops are running
	c.ProbeOnce(context.Background())
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	do := func(method, path, tenant, body string) (int, http.Header, fleetWireJob) {
		t.Helper()
		req, err := http.NewRequest(method, front.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(server.TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc fleetWireJob
		if resp.StatusCode < 300 {
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, resp.Header, doc
	}
	const spec = `{"domain":"gatesim","scheme":"GP-DK","p":8}`
	code, _, owner := do(http.MethodPost, "/v1/jobs", "a", spec)
	if code != http.StatusAccepted {
		t.Fatalf("tenant a's submission: %d", code)
	}
	for deadline := time.Now().Add(5 * time.Second); runs.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("tenant a's run never started")
		}
	}
	code, hdr, joined := do(http.MethodPost, "/v1/jobs", "b", spec)
	if code != http.StatusAccepted || hdr.Get("X-Collapsed") != "1" || joined.ID != owner.ID {
		t.Fatalf("tenant b's submission: %d collapsed=%q id %s, want 202 collapsed onto %s", code, hdr.Get("X-Collapsed"), joined.ID, owner.ID)
	}
	if code, _, _ := do(http.MethodDelete, "/v1/jobs/"+owner.ID, "b", ""); code != http.StatusForbidden {
		t.Fatalf("tenant b's DELETE of a's live job: %d, want 403", code)
	}
	if st := getJSONAs[fleetWireJob](t, front.URL+"/v1/jobs/"+owner.ID).Status; server.Status(st).Terminal() {
		t.Fatalf("tenant b's refused DELETE ended a's job: %s", st)
	}
	if code, _, _ := do(http.MethodDelete, "/v1/jobs/"+owner.ID, "a", ""); code != http.StatusOK {
		t.Fatalf("tenant a's DELETE of its own job: %d, want 200", code)
	}
	if fin := waitFleetTerminal(t, front.URL, owner.ID); fin.Status != string(server.StatusCancelled) {
		t.Fatalf("tenant a's job finished %s after its DELETE, want cancelled", fin.Status)
	}
}
