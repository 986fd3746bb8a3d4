package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"simdtree/internal/server"
)

// compactJSON strips transport indentation so raw documents produced at
// different nesting depths compare byte-for-byte on content.
func compactJSON(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatalf("compact %q: %v", b, err)
	}
	return buf.Bytes()
}

// TestFleetKillNodeFailover is the fleet's acceptance path, the cluster
// analogue of the server's kill-and-restart test: three in-process
// nodes behind a coordinator, the node owning a job is killed mid-run
// (connections dropped without a response — the in-process equivalent
// of SIGKILL), the coordinator ejects it after the failure threshold
// and ships its warm checkpoint copy to a survivor, and the job
// completes with result bytes identical to an uninterrupted run on a
// standalone node.  Afterwards the dead node is revived on the same URL
// and the test pins the consistent-hashing satellite: the ring routes
// the same cache key to the same node as before the outage.
func TestFleetKillNodeFailover(t *testing.T) {
	ctx := context.Background()

	// Reference: the same job on a standalone, spool-less node.
	ref := startNode(t, server.Config{Workers: 1,
		Runners: map[string]server.Runner{"fleetsim": fleetRunner(nil)}})
	refSub, code := postJSONAs[innerWireJob](t, ref.ts.URL+"/v1/jobs", fleetSpec)
	if code != http.StatusAccepted && code != http.StatusOK { // 200: a free worker already finished it
		t.Fatalf("reference submit: %d", code)
	}
	refFin := waitNodeTerminal(t, ref.ts.URL, refSub.ID)
	if refFin.Status != "done" {
		t.Fatalf("reference job finished %q: %s", refFin.Status, refFin.Error)
	}

	// Three spooled nodes; each carries a gate it only honors when
	// armed, because which node owns the job depends on the ring over
	// the (port-randomized) node URLs.  Checkpoints land every 50
	// cycles; the gate holds the run at cycle 120, so cycles 50 and 100
	// are on disk when the coordinator pulls its warm copy.
	const (
		ckptEvery = 50
		gateCycle = 120
	)
	nodeCfg := func(gate *fleetGate) server.Config {
		g := fleetRunner(nil)
		if gate != nil {
			g = fleetRunner(gate.fn)
		}
		return server.Config{Workers: 1, Spool: t.TempDir(), CheckpointEvery: ckptEvery,
			Runners: map[string]server.Runner{"fleetsim": g}}
	}
	gates := make([]*fleetGate, 3)
	nodes := make([]*testNode, 3)
	urls := make([]string, 3)
	for i := range nodes {
		gates[i] = newFleetGate(gateCycle)
		nodes[i] = startNode(t, nodeCfg(gates[i]))
		urls[i] = nodes[i].ts.URL
	}

	c, err := New(Config{
		Nodes:          urls,
		FailThreshold:  3,
		OverflowDepth:  1000, // routing in this test is purely by ring
		ExtraDomains:   []string{"fleetsim"},
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background()) //lint:allow errdrop no loops are running
	c.ProbeOnce(ctx)

	// Work out which node the ring will hand the job to, and arm only
	// that node's gate.
	var spec server.JobSpec
	if err := json.Unmarshal([]byte(fleetSpec), &spec); err != nil {
		t.Fatal(err)
	}
	canonical, err := server.Canonicalize(spec, map[string]bool{"fleetsim": true})
	if err != nil {
		t.Fatal(err)
	}
	key := server.CacheKey(canonical)
	home, _, err := c.route(key)
	if err != nil {
		t.Fatal(err)
	}
	homeIdx := -1
	for i, u := range urls {
		if u == home {
			homeIdx = i
		}
	}
	if homeIdx < 0 {
		t.Fatalf("ring home %s is not one of the nodes", home)
	}
	gates[homeIdx].armed.Store(true)

	front := httptest.NewServer(c.Handler())
	defer front.Close()

	sub, code := postJSONAs[fleetWireJob](t, front.URL+"/v1/jobs", fleetSpec)
	if code != http.StatusAccepted {
		t.Fatalf("fleet submit: %d", code)
	}
	if sub.Node != home {
		t.Fatalf("job routed to %s, ring home is %s", sub.Node, home)
	}
	if sub.CacheKey != key {
		t.Fatalf("coordinator key %s, locally computed %s", sub.CacheKey, key)
	}
	<-gates[homeIdx].started // blocked at cycle 120; checkpoints 50 and 100 spooled

	// Pull the warm checkpoint copy, then take the home node dark.
	c.SyncOnce(ctx)
	f, ok := c.jobs.Get(sub.ID)
	if !ok {
		t.Fatal("fleet job not in store")
	}
	f.mu.Lock()
	warm := f.ckpt
	f.mu.Unlock()
	if warm == nil {
		t.Fatal("sync pulled no warm checkpoint while the job was running")
	}
	nodes[homeIdx].kill()

	// Three failed probes eject the node and trigger failover in the
	// same sweep.
	for i := 0; i < 3; i++ {
		c.ProbeOnce(ctx)
	}
	f.mu.Lock()
	movedTo, resumed := f.node, f.resumed
	f.mu.Unlock()
	if movedTo == home {
		t.Fatalf("job still owned by the dead node %s", home)
	}
	if !resumed {
		t.Fatal("failover re-submitted fresh instead of shipping the checkpoint")
	}

	fin := waitFleetTerminal(t, front.URL, sub.ID)
	if fin.Status != "done" {
		t.Fatalf("failed-over job finished %q", fin.Status)
	}
	if !fin.Resumed || fin.Failovers != 1 {
		t.Errorf("resumed_by_failover=%t failovers=%d, want true/1", fin.Resumed, fin.Failovers)
	}
	var inner innerWireJob
	if err := json.Unmarshal(fin.Job, &inner); err != nil {
		t.Fatalf("inner job document: %v", err)
	}
	if !inner.Resumed || inner.ResumedFromCycle != 100 {
		t.Errorf("survivor resumed=%t from cycle %d, want resumption from cycle 100", inner.Resumed, inner.ResumedFromCycle)
	}
	if inner.CacheKey != key {
		t.Errorf("survivor ran key %s, want %s", inner.CacheKey, key)
	}
	// The coordinator's indenting encoder re-flows the nested node
	// document, so normalize whitespace before the byte comparison —
	// field order and values must still match exactly.
	if !bytes.Equal(compactJSON(t, inner.Stats), compactJSON(t, refFin.Stats)) {
		t.Errorf("failed-over result differs from uninterrupted run:\n got %s\nwant %s", inner.Stats, refFin.Stats)
	}

	// Revive the home node on its original URL with a fresh spool (its
	// old spool still holds the dead copy, which must not race the
	// failed-over one) and readmit it.  The ring must route the same
	// cache key to the same node as before the outage.
	nodes[homeIdx].revive(nodeCfg(nil))
	c.ProbeOnce(ctx)
	after, overflow, err := c.route(key)
	if err != nil {
		t.Fatal(err)
	}
	if overflow || after != home {
		t.Fatalf("post-readmission route %s (overflow %t), want pre-outage home %s", after, overflow, home)
	}

	// The fleet counters account for the episode.
	m := getJSONAs[map[string]any](t, front.URL+"/metrics")
	for metric, want := range map[string]float64{
		"jobs_failed_over_total":         1,
		"jobs_failed_over_resumed_total": 1,
		"nodes_ejected_total":            1,
		"nodes_readmitted_total":         1,
	} {
		if got := m[metric].(float64); got != want {
			t.Errorf("%s = %v, want %v", metric, got, want)
		}
	}
	if got := m["checkpoints_pulled_total"].(float64); got < 1 {
		t.Errorf("checkpoints_pulled_total = %v, want >= 1", got)
	}
}
