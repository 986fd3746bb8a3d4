package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simdtree/internal/server"
)

// stealFleet is TestFleetStealDistributedRun's setup for the tests after
// it: spooled nodes whose synthetic runner holds stealSpec at cycle 2 on
// its ring home, and a coordinator without background loops in front.
type stealFleet struct {
	nodes []*testNode
	gates []*fleetGate
	urls  []string
	home  int // index of stealSpec's ring home
	c     *Coordinator
	front *httptest.Server
}

func newStealFleet(t *testing.T, nodes, shards int) *stealFleet {
	t.Helper()
	sf := &stealFleet{}
	for i := 0; i < nodes; i++ {
		g := newFleetGate(2)
		n := startNode(t, server.Config{
			Workers: 1, Spool: t.TempDir(), CheckpointEvery: 50,
			Runners: map[string]server.Runner{"synthetic": fleetRunner(g.fn)},
		})
		sf.gates, sf.nodes, sf.urls = append(sf.gates, g), append(sf.nodes, n), append(sf.urls, n.ts.URL)
	}
	c, err := New(Config{Nodes: sf.urls, OverflowDepth: 1000, StealShards: shards, FailThreshold: 3, RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Shutdown(context.Background()) }) //lint:allow errdrop no loops are running
	c.ProbeOnce(context.Background())
	sf.c = c
	var spec server.JobSpec
	if err := json.Unmarshal([]byte(stealSpec), &spec); err != nil {
		t.Fatal(err)
	}
	canonical, err := server.Canonicalize(spec, c.domains)
	if err != nil {
		t.Fatal(err)
	}
	home, _, err := c.route(server.CacheKey(canonical))
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range sf.urls {
		if u == home {
			sf.home = i
		}
	}
	sf.front = httptest.NewServer(c.Handler())
	t.Cleanup(sf.front.Close)
	return sf
}

// stealMidRun submits stealSpec through the fleet, holds it at cycle 2 on
// its home node and steals it there.
func (sf *stealFleet) stealMidRun(t *testing.T) fleetWireJob {
	t.Helper()
	g := sf.gates[sf.home]
	g.armed.Store(true)
	sub, code := postJSONAs[fleetWireJob](t, sf.front.URL+"/v1/jobs", stealSpec)
	if code != http.StatusAccepted || sub.Node != sf.urls[sf.home] {
		t.Fatalf("fleet submit: %d to %s, want 202 to the ring home %s", code, sub.Node, sf.urls[sf.home])
	}
	<-g.started
	g.armed.Store(false)
	if stolen, err := sf.c.StealOnce(context.Background()); err != nil || stolen != sub.ID {
		t.Fatalf("StealOnce = %q, %v; want %q", stolen, err, sub.ID)
	}
	return sub
}

// stealReference runs stealSpec undistributed on a standalone node and
// returns its document and normalised trace.
func stealReference(t *testing.T) (innerWireJob, []byte) {
	t.Helper()
	ref := startNode(t, server.Config{Workers: 1})
	sub, code := postJSONAs[innerWireJob](t, ref.ts.URL+"/v1/jobs", stealSpec)
	if code != http.StatusAccepted && code != http.StatusOK { // 200: a free worker already finished it
		t.Fatalf("reference submit: %d", code)
	}
	fin := waitNodeTerminal(t, ref.ts.URL, sub.ID)
	if fin.Status != "done" {
		t.Fatalf("reference job finished %q: %s", fin.Status, fin.Error)
	}
	return fin, getTraceNormalized(t, ref.ts.URL+"/v1/jobs/"+sub.ID+"/trace")
}

// stepGate holds a node's shard-session steps from its at-th on, until
// release is closed or the caller gives up on the call.
type stepGate struct {
	at      int64
	n       atomic.Int64
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func holdSteps(n *testNode, at int64) *stepGate {
	g := &stepGate{at: at, reached: make(chan struct{}), release: make(chan struct{})}
	inner := n.handler.Load().(http.Handler)
	mux := http.NewServeMux() // the handler's concrete type stays *http.ServeMux
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/step") && g.n.Add(1) >= g.at {
			g.once.Do(func() { close(g.reached) })
			select {
			case <-g.release:
			case <-r.Context().Done():
				return
			}
		}
		inner.ServeHTTP(w, r)
	})
	n.handler.Store(mux)
	return g
}

// metricOf reads one counter off a node's /metrics.
func metricOf(t *testing.T, base, key string) float64 {
	t.Helper()
	v, ok := getJSONAs[map[string]any](t, base+"/metrics")[key].(float64)
	if !ok {
		t.Fatalf("%s/metrics has no numeric %s", base, key)
	}
	return v
}

// TestFleetStealCacheHit: a distributed run ends as its node's job, so
// its result lands in that node's cache, and the same spec submitted again
// is answered from the ring home's cache.  At the parent the donor's job
// ended "donated", no node cached the merged result, and the spec ran
// again from scratch.
func TestFleetStealCacheHit(t *testing.T) {
	sf := newStealFleet(t, 2, 2)
	sub := sf.stealMidRun(t)
	fin := waitFleetTerminal(t, sf.front.URL, sub.ID)
	if fin.Status != "done" {
		t.Fatalf("distributed job finished %q", fin.Status)
	}
	again, code := postJSONAs[fleetWireJob](t, sf.front.URL+"/v1/jobs", stealSpec)
	var inner struct {
		CacheHit bool            `json:"cache_hit"`
		Stats    json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(again.Job, &inner); err != nil {
		t.Fatalf("resubmitted job document: %v", err)
	}
	if code != http.StatusOK || !inner.CacheHit || again.Node != sf.urls[sf.home] {
		t.Fatalf("resubmit answered %d cache_hit=%t from %s, want 200 cache_hit from the ring home %s",
			code, inner.CacheHit, again.Node, sf.urls[sf.home])
	}
	var done innerWireJob
	if err := json.Unmarshal(fin.Job, &done); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compactJSON(t, inner.Stats), compactJSON(t, done.Stats)) {
		t.Errorf("cached stats differ from the distributed run's:\n got %s\nwant %s", inner.Stats, done.Stats)
	}
}

// TestFleetStealDonorDies: the node driving a distributed run dies mid-run.
// The stolen job is an ordinary node job to the fleet, so sync has pulled
// the run's last assembled checkpoint from the donor's spool, and failover
// resumes the job from it on the survivor, byte-identical to an
// undistributed run.  The dying donor closes its peer's session on a
// deadline of its own, its job's context being dead.  At the parent
// failover skipped the coordinator-driven job and the driver re-imported
// it to the dead donor, so it ended failed.
func TestFleetStealDonorDies(t *testing.T) {
	ctx := context.Background()
	ref, refTrace := stealReference(t)
	sf := newStealFleet(t, 2, 2)
	peer := 1 - sf.home
	// Shard 1's 120th step is cycle 122: the cycle-100 checkpoint is spooled.
	g := holdSteps(sf.nodes[peer], 120)
	sub := sf.stealMidRun(t)
	<-g.reached

	sf.c.SyncOnce(ctx)
	f, _ := sf.c.jobs.Get(sub.ID)
	f.mu.Lock()
	warm := f.ckpt
	f.mu.Unlock()
	if warm == nil {
		t.Fatal("sync pulled no checkpoint of the distributed run")
	}
	sf.nodes[sf.home].kill()
	close(g.release)
	if n := metricOf(t, sf.urls[peer], "steal_sessions_active"); n != 0 {
		t.Errorf("the dead donor left %v session(s) open on its peer", n)
	}
	for i := 0; i < 3; i++ {
		sf.c.ProbeOnce(ctx)
	}

	fin := waitFleetTerminal(t, sf.front.URL, sub.ID)
	if fin.Status != "done" || fin.Node != sf.urls[peer] || !fin.Resumed || fin.Failovers != 1 {
		t.Fatalf("failed-over job: status %q on %s, resumed %t, failovers %d; want done on %s, resumed, 1",
			fin.Status, fin.Node, fin.Resumed, fin.Failovers, sf.urls[peer])
	}
	var inner innerWireJob
	if err := json.Unmarshal(fin.Job, &inner); err != nil {
		t.Fatal(err)
	}
	if !inner.Resumed || inner.ResumedFromCycle != 100 {
		t.Errorf("survivor resumed=%t from cycle %d, want the assembled checkpoint of cycle 100", inner.Resumed, inner.ResumedFromCycle)
	}
	if !bytes.Equal(compactJSON(t, inner.Stats), compactJSON(t, ref.Stats)) {
		t.Errorf("failed-over stats differ from the undistributed run:\n got %s\nwant %s", inner.Stats, ref.Stats)
	}
	if tr := getTraceNormalized(t, sf.front.URL+"/v1/jobs/"+sub.ID+"/trace"); !bytes.Equal(tr, refTrace) {
		t.Error("failed-over trace differs from the undistributed run's")
	}
}

// TestFleetStealPeerDies: a peer hosting one shard of a three-shard run
// dies mid-run.  The donor closes the surviving peer's session and resumes
// the job single-node from the run's last assembled checkpoint, under the
// same node job id, and finishes byte-identical to an undistributed run.
func TestFleetStealPeerDies(t *testing.T) {
	ref, refTrace := stealReference(t)
	sf := newStealFleet(t, 3, 3)
	home := sf.urls[sf.home]
	victim, survivor := (sf.home+1)%3, (sf.home+2)%3
	// Either shard's 60th step is cycle 62; the last checkpoint is cycle 50's.
	g := holdSteps(sf.nodes[victim], 60)
	sub := sf.stealMidRun(t)
	<-g.reached
	sf.nodes[victim].kill()
	close(g.release)

	fin := waitNodeTerminal(t, home, sub.NodeJobID)
	if fin.Status != "done" {
		t.Fatalf("donor's job finished %q: %s", fin.Status, fin.Error)
	}
	if !fin.Resumed || fin.ResumedFromCycle != 50 {
		t.Errorf("donor resumed=%t from cycle %d, want the assembled checkpoint of cycle 50", fin.Resumed, fin.ResumedFromCycle)
	}
	if !bytes.Equal(compactJSON(t, fin.Stats), compactJSON(t, ref.Stats)) {
		t.Errorf("stats differ from the undistributed run:\n got %s\nwant %s", fin.Stats, ref.Stats)
	}
	if tr := getTraceNormalized(t, home+"/v1/jobs/"+sub.NodeJobID+"/trace"); !bytes.Equal(tr, refTrace) {
		t.Error("trace differs from the undistributed run's")
	}
	for key, want := range map[string]float64{"steal_runs_failed_total": 1, "steal_runs_completed_total": 0} {
		if got := metricOf(t, home, key); got != want {
			t.Errorf("donor %s = %v, want %v", key, got, want)
		}
	}
	if n := metricOf(t, sf.urls[survivor], "steal_sessions_active"); n != 0 {
		t.Errorf("the surviving peer still holds %v session(s)", n)
	}
	if f := waitFleetTerminal(t, sf.front.URL, sub.ID); f.Status != "done" || f.Node != home || f.NodeJobID != sub.NodeJobID {
		t.Errorf("fleet job %s on %s as %s, want done on %s as %s", f.Status, f.Node, f.NodeJobID, home, sub.NodeJobID)
	}
}
