package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"simdtree/internal/server"
)

// stealSpec is the job the steal e2e distributes: a built-in domain (only
// built-ins can host shard sessions), sharded-friendly P, traced so the
// merged trace can be compared against the undistributed run.  The
// workload matches the steal driver's donation test: an early donation of
// it reliably produces cross-shard frames.
const stealSpec = `{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":4000,"seed":3},"trace":true}`

// distWireDoc mirrors a stolen job's node document for decoding.
type distWireDoc struct {
	ID             string             `json:"id"`
	Status         string             `json:"status"`
	CacheKey       string             `json:"cache_key"`
	Distributed    bool               `json:"distributed"`
	Shards         []server.ShardInfo `json:"shards"`
	Donations      int                `json:"donations"`
	LocalTransfers int                `json:"local_transfers"`
	Stats          json.RawMessage    `json:"stats"`
	Efficiency     float64            `json:"efficiency"`
	Speedup        float64            `json:"speedup"`
}

// getTraceNormalized fetches a trace document and strips the job id (the
// only field legitimately differing between a node's rendering and the
// coordinator's), returning canonical bytes for comparison.
func getTraceNormalized(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body) //lint:allow errdrop the error body is advisory
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	delete(m, "id")
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetStealDistributedRun is the subsystem's kill-free acceptance
// path: a job starts on node A, the coordinator steals it mid-run — A's
// worker yields the run at a cycle boundary, keeps shard 0, opens shard 1
// as a session on B and drives both in lock-step — at least one stack
// segment crosses to node B as a donation frame, and the merged result
// (stats, efficiency, speedup, trace) is byte-identical to the same spec
// run undistributed on a standalone node.
func TestFleetStealDistributedRun(t *testing.T) {
	ctx := context.Background()

	// Reference: the same spec, undistributed, on a spool-less node with
	// the stock built-in runner.
	ref := startNode(t, server.Config{Workers: 1})
	refSub, code := postJSONAs[innerWireJob](t, ref.ts.URL+"/v1/jobs", stealSpec)
	if code != http.StatusAccepted && code != http.StatusOK { // 200: a free worker already finished it
		t.Fatalf("reference submit: %d", code)
	}
	refFin := waitNodeTerminal(t, ref.ts.URL, refSub.ID)
	if refFin.Status != "done" {
		t.Fatalf("reference job finished %q: %s", refFin.Status, refFin.Error)
	}
	var refEff struct {
		Efficiency float64 `json:"efficiency"`
		Speedup    float64 `json:"speedup"`
	}
	refDoc := getJSONAs[json.RawMessage](t, ref.ts.URL+"/v1/jobs/"+refSub.ID)
	if err := json.Unmarshal(refDoc, &refEff); err != nil {
		t.Fatal(err)
	}
	refTrace := getTraceNormalized(t, ref.ts.URL+"/v1/jobs/"+refSub.ID+"/trace")

	// Two spooled nodes.  The synthetic runner is overridden with a gated
	// wrapper around the identical machine construction, so the run can
	// be held at a cycle boundary long enough for the steal sweep to land
	// deterministically; the gate releases the moment the steal's yield
	// fires.  Both nodes carry a gate (ring placement of the
	// key is port-dependent), only the home node's is armed.
	const ckptEvery = 50
	gates := make([]*fleetGate, 2)
	nodes := make([]*testNode, 2)
	urls := make([]string, 2)
	for i := range nodes {
		gates[i] = newFleetGate(2)
		nodes[i] = startNode(t, server.Config{
			Workers: 1, Spool: t.TempDir(), CheckpointEvery: ckptEvery,
			Runners: map[string]server.Runner{"synthetic": fleetRunner(gates[i].fn)},
		})
		urls[i] = nodes[i].ts.URL
	}

	c, err := New(Config{
		Nodes:          urls,
		OverflowDepth:  1000, // routing here is purely by ring
		StealShards:    2,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background()) //lint:allow errdrop no loops are running
	c.ProbeOnce(ctx)

	var spec server.JobSpec
	if err := json.Unmarshal([]byte(stealSpec), &spec); err != nil {
		t.Fatal(err)
	}
	canonical, err := server.Canonicalize(spec, c.domains)
	if err != nil {
		t.Fatal(err)
	}
	key := server.CacheKey(canonical)
	home, _, err := c.route(key)
	if err != nil {
		t.Fatal(err)
	}
	homeIdx := 0
	if urls[1] == home {
		homeIdx = 1
	}
	other := urls[1-homeIdx]
	gates[homeIdx].armed.Store(true)

	front := httptest.NewServer(c.Handler())
	defer front.Close()

	sub, code := postJSONAs[fleetWireJob](t, front.URL+"/v1/jobs", stealSpec)
	if code != http.StatusAccepted {
		t.Fatalf("fleet submit: %d", code)
	}
	if sub.Node != home {
		t.Fatalf("job routed to %s, ring home is %s", sub.Node, home)
	}
	<-gates[homeIdx].started // held at cycle 2, provably mid-run

	stolen, err := c.StealOnce(ctx)
	if err != nil {
		t.Fatalf("StealOnce: %v", err)
	}
	if stolen != sub.ID {
		t.Fatalf("StealOnce converted %q, want %q", stolen, sub.ID)
	}

	fin := waitFleetTerminal(t, front.URL, sub.ID)
	if fin.Status != "done" {
		t.Fatalf("distributed job finished %q", fin.Status)
	}
	var doc distWireDoc
	if err := json.Unmarshal(fin.Job, &doc); err != nil {
		t.Fatalf("merged job document: %v", err)
	}
	if !doc.Distributed || doc.Status != "done" {
		t.Fatalf("merged doc distributed=%t status=%q, want true/done", doc.Distributed, doc.Status)
	}
	if doc.CacheKey != key {
		t.Errorf("merged doc key %s, want %s", doc.CacheKey, key)
	}

	// Shard provenance: donor kept [0, 4) on node A, node B absorbed
	// [4, 8).
	if len(doc.Shards) != 2 {
		t.Fatalf("merged doc has %d shards, want 2", len(doc.Shards))
	}
	if doc.Shards[0].Node != home || doc.Shards[0].Lo != 0 || doc.Shards[0].Hi != 4 {
		t.Errorf("shard 0 = %+v, want donor %s [0,4)", doc.Shards[0], home)
	}
	if doc.Shards[1].Node != other || doc.Shards[1].Lo != 4 || doc.Shards[1].Hi != 8 {
		t.Errorf("shard 1 = %+v, want receiver %s [4,8)", doc.Shards[1], other)
	}

	// At least one stack segment crossed node A -> node B mid-run.
	if doc.Donations < 1 {
		t.Errorf("distributed run shipped %d cross-node donation frames, want >= 1", doc.Donations)
	}

	// The merged result is byte-identical to the undistributed run.
	if !bytes.Equal(compactJSON(t, doc.Stats), compactJSON(t, refFin.Stats)) {
		t.Errorf("merged stats differ from undistributed run:\n got %s\nwant %s", doc.Stats, refFin.Stats)
	}
	if doc.Efficiency != refEff.Efficiency || doc.Speedup != refEff.Speedup {
		t.Errorf("merged efficiency/speedup %v/%v, want %v/%v",
			doc.Efficiency, doc.Speedup, refEff.Efficiency, refEff.Speedup)
	}
	distTrace := getTraceNormalized(t, front.URL+"/v1/jobs/"+sub.ID+"/trace")
	if !bytes.Equal(distTrace, refTrace) {
		t.Errorf("merged trace differs from undistributed run:\n got %d bytes\nwant %d bytes", len(distTrace), len(refTrace))
	}

	// Node A's own record of the job is the one the envelope carries.
	nodeView := getJSONAs[innerWireJob](t, home+"/v1/jobs/"+sub.NodeJobID)
	if nodeView.Status != "done" {
		t.Errorf("donor node job status %q, want done", nodeView.Status)
	}
	nodeDoc := getJSONAs[json.RawMessage](t, home+"/v1/jobs/"+sub.NodeJobID)
	if !bytes.Equal(compactJSON(t, nodeDoc), compactJSON(t, fin.Job)) {
		t.Errorf("donor node document differs from the envelope's job:\n got %s\nwant %s", nodeDoc, fin.Job)
	}

	// The node's SSE stream, proxied by the fleet, carries the run: per-shard
	// progress events, checkpoint events on the ship cadence, and a
	// terminal status event that closes the stream.
	resp, err := http.Get(front.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sse, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"event: status", "event: progress", "event: checkpoint", `"shard":1`, `"shards":2`, `"efficiency":`, `"idle_over_lp":`} {
		if !strings.Contains(string(sse), want) {
			t.Errorf("distributed SSE stream lacks %q", want)
		}
	}

	// /fleet surfaces the distributed run and the scrape freshness.
	fleet := getJSONAs[map[string]any](t, front.URL+"/fleet")
	stealSec, ok := fleet["steal"].(map[string]any)
	if !ok {
		t.Fatal("/fleet has no steal section")
	}
	jobs, _ := stealSec["jobs"].([]any)
	if len(jobs) != 1 {
		t.Fatalf("/fleet steal.jobs has %d entries, want 1", len(jobs))
	}
	row := jobs[0].(map[string]any)
	if row["status"] != "done" || row["id"] != sub.ID {
		t.Errorf("/fleet steal job row %v, want id %s done", row, sub.ID)
	}
	for _, nv := range fleet["nodes"].([]any) {
		n := nv.(map[string]any)
		if ms, ok := n["scraped_ago_ms"].(float64); !ok || ms < 0 {
			t.Errorf("node %v scraped_ago_ms = %v, want >= 0 after a probe", n["url"], n["scraped_ago_ms"])
		}
	}

	// The counters account for the episode: the steal on the fleet, the
	// run on the node that drove it.
	m := getJSONAs[map[string]any](t, front.URL+"/metrics")
	if got := m["jobs_stolen_total"].(float64); got != 1 {
		t.Errorf("jobs_stolen_total = %v, want 1", got)
	}
	m = getJSONAs[map[string]any](t, home+"/metrics")
	for metric, want := range map[string]float64{
		"steal_runs_completed_total": 1,
		"steal_runs_failed_total":    0,
	} {
		if got := m[metric].(float64); got != want {
			t.Errorf("%s = %v, want %v", metric, got, want)
		}
	}
	if got := m["steal_donations_total"].(float64); got < 1 {
		t.Errorf("steal_donations_total = %v, want >= 1", got)
	}
}

// TestStealReceiverRotationProperty pins the cluster-wide GP invariant on
// the steal controller's receiver pointer: under any eligibility subset,
// a window of |S| consecutive picks targets every eligible node exactly
// once — no node is re-targeted before the pointer wraps — regardless of
// where previous windows left the pointer.
func TestStealReceiverRotationProperty(t *testing.T) {
	urls := []string{"http://n1", "http://n2", "http://n3", "http://n4", "http://n5", "http://n6", "http://n7"}
	c, err := New(Config{Nodes: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background()) //lint:allow errdrop no loops are running

	// Inline LCG; the repo bans math/rand for reproducibility.
	seed := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	for trial := 0; trial < 300; trial++ {
		eligible := make(map[string]bool)
		for _, u := range urls {
			if rnd()%2 == 0 {
				eligible[u] = true
			}
		}
		if len(eligible) == 0 {
			if _, ok := c.stealGP.Pick(func(u string) bool { return eligible[u] }); ok {
				t.Fatal("empty eligibility set still produced a pick")
			}
			continue
		}
		seen := make(map[string]bool, len(eligible))
		for i := 0; i < len(eligible); i++ {
			u, ok := c.stealGP.Pick(func(u string) bool { return eligible[u] })
			if !ok {
				t.Fatalf("trial %d: pick %d found no node among %d eligible", trial, i, len(eligible))
			}
			if !eligible[u] {
				t.Fatalf("trial %d: picked ineligible node %s", trial, u)
			}
			if seen[u] {
				t.Fatalf("trial %d: node %s re-targeted before the pointer wrapped over %d eligible nodes", trial, u, len(eligible))
			}
			seen[u] = true
		}
	}
}

// TestOverflowSkipsStaleScrapes pins the freshness gate: with the
// background prober configured, a node whose queue gauges have not been
// scraped within one probe interval is not an overflow target — its depth
// could hide a pile-up — and /fleet reports scraped_ago_ms of -1 for a
// node never scraped at all.
func TestOverflowSkipsStaleScrapes(t *testing.T) {
	urls := []string{"http://n1", "http://n2", "http://n3"}
	c, err := New(Config{Nodes: urls, OverflowDepth: 4, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// The probe loop ticks hourly; it never fires within the test.
	defer c.Shutdown(context.Background()) //lint:allow errdrop the loop is stopped before its first tick

	const key = "deadbeef"
	home, _, err := c.route(key)
	if err != nil {
		t.Fatal(err)
	}
	hn, _ := c.nodeByURL(home)
	hn.setDepth(10)

	// No node has ever been scraped: the home stays loaded but keeps the
	// job rather than spilling onto unknown queues.
	if tgt, ov, err := c.route(key); err != nil || ov || tgt != home {
		t.Fatalf("unscraped fleet routed %s (overflow %t, err %v), want home %s", tgt, ov, err, home)
	}

	// Freshly scraped alternates become eligible again...
	var fresh string
	for _, u := range urls {
		if u == home {
			continue
		}
		fresh = u
		break
	}
	fn, _ := c.nodeByURL(fresh)
	fn.mu.Lock()
	fn.scraped = time.Now()
	fn.mu.Unlock()
	if tgt, ov, err := c.route(key); err != nil || !ov || tgt != fresh {
		t.Fatalf("route gave %s (overflow %t, err %v), want spill to freshly scraped %s", tgt, ov, err, fresh)
	}

	// ...and a scrape older than the probe interval goes stale again.
	fn.mu.Lock()
	fn.scraped = time.Now().Add(-2 * time.Hour)
	fn.mu.Unlock()
	if tgt, ov, err := c.route(key); err != nil || ov || tgt != home {
		t.Fatalf("stale-scrape fleet routed %s (overflow %t, err %v), want home %s", tgt, ov, err, home)
	}

	// /fleet distinguishes never-scraped (-1) from scraped.
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	fleet := getJSONAs[map[string]any](t, ts.URL+"/fleet")
	ages := make(map[string]float64)
	for _, nv := range fleet["nodes"].([]any) {
		n := nv.(map[string]any)
		ages[n["url"].(string)] = n["scraped_ago_ms"].(float64)
	}
	if ages[home] != -1 {
		t.Errorf("never-scraped home reports scraped_ago_ms %v, want -1", ages[home])
	}
	if ages[fresh] < 0 {
		t.Errorf("scraped node reports scraped_ago_ms %v, want >= 0", ages[fresh])
	}
}
