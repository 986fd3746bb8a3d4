package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simdtree/internal/checkpoint"
	"simdtree/internal/metrics"
	"simdtree/internal/server"
	"simdtree/internal/simd"
	"simdtree/internal/synthetic"
	"simdtree/internal/wire"
)

// fleetSpec is the job the e2e tests route through the fleet: the same
// fixed synthetic instance the server spool tests use, under a domain
// name only the test nodes serve.
const fleetSpec = `{"domain":"fleetsim","scheme":"GP-DK","p":8}`

// fleetRunner executes a synthetic instance through the full
// checkpointable path — build, restore-if-resuming, periodic checkpoint
// sink, final checkpoint on cancellation — using only the server
// package's exported surface, so the cluster tests exercise exactly the
// plumbing the built-in domains use.  A spec carrying a synthetic block
// selects that instance (matching the built-in synthetic runner's
// construction exactly, which the steal test's byte-identity check
// relies on); without one the fixed 20000/7 instance runs.  gate, when
// non-nil, is called at every cycle boundary with the run context and
// may block on it; that is how the kill and steal tests hold a job
// mid-flight deterministically and release it the instant a shutdown or
// a steal's yield cancels the run.
func fleetRunner(gate func(ctx context.Context, cycle int)) server.Runner {
	return func(ctx context.Context, spec server.JobSpec, opts simd.Options, env server.RunEnv) (metrics.Stats, error) {
		if gate != nil {
			opts.ProgressEvery = 1
			opts.Progress = func(pi simd.ProgressInfo) { gate(ctx, pi.Stats.Cycles) }
		}
		w, seed := int64(20000), uint64(7)
		if spec.Synthetic != nil {
			w, seed = spec.Synthetic.W, spec.Synthetic.Seed
		}
		codec := wire.SyntheticCodec{}
		sch, err := simd.ParseScheme[synthetic.Node](spec.Scheme)
		if err != nil {
			return metrics.Stats{}, err
		}
		checkpointing := env.Write != nil && env.CheckpointEvery > 0
		if checkpointing {
			opts.CheckpointEvery = env.CheckpointEvery
		}
		m, err := simd.NewMachine[synthetic.Node](synthetic.New(w, seed), sch, opts)
		if err != nil {
			return metrics.Stats{}, err
		}
		if env.Resume != nil {
			_, snap, err := checkpoint.Decode[synthetic.Node](codec, env.Resume)
			if err != nil {
				return metrics.Stats{}, err
			}
			if err := m.RestoreSnapshot(snap); err != nil {
				return metrics.Stats{}, err
			}
			if env.OnResume != nil {
				env.OnResume(snap.Cycle)
			}
		}
		meta := checkpoint.Meta{Domain: spec.Domain, Scheme: spec.Scheme, Topology: spec.Topology, Extra: env.SpecJSON}
		save := func(snap *simd.Snapshot[synthetic.Node]) error {
			b, err := checkpoint.Encode[synthetic.Node](codec, meta, snap)
			if err != nil {
				return err
			}
			return env.Write(b)
		}
		if checkpointing {
			m.OnCheckpoint(save)
		}
		stats, runErr := m.RunContext(ctx)
		if runErr != nil && stats.Cancelled && checkpointing {
			if snap, err := m.Snapshot(); err == nil {
				_ = save(snap) //lint:allow errdrop the previous periodic checkpoint remains usable
			}
		}
		return stats, runErr
	}
}

// testNode hosts one simdserve behind a fixed URL whose backing server
// can be killed (connections die mid-handshake, the in-process stand-in
// for a machine going dark) and later revived as a fresh process on the
// same address — the listener outlives the server, like a rebooted host
// keeps its IP.
type testNode struct {
	t       *testing.T
	ts      *httptest.Server
	srv     *server.Server
	handler atomic.Value // http.Handler
	dead    atomic.Bool
	killed  bool
}

func startNode(t *testing.T, cfg server.Config) *testNode {
	t.Helper()
	n := &testNode{t: t}
	n.boot(cfg)
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.dead.Load() {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close() //lint:allow errdrop the point is to drop the connection
					return
				}
			}
			panic(http.ErrAbortHandler)
		}
		n.handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		n.ts.Close()
		if !n.killed {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := n.srv.Shutdown(ctx); err != nil {
				t.Errorf("node shutdown: %v", err)
			}
		}
	})
	return n
}

func (n *testNode) boot(cfg server.Config) {
	n.t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		n.t.Fatal(err)
	}
	n.srv = s
	n.handler.Store(s.Handler())
}

// kill takes the node dark: the grace period is already expired, so the
// shutdown cancels the running jobs immediately (the in-process
// equivalent of SIGKILL after SIGTERM), and every subsequent connection
// is dropped without an HTTP response.
func (n *testNode) kill() {
	n.t.Helper()
	n.dead.Store(true)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_ = n.srv.Shutdown(expired) //lint:allow errdrop the expired grace period is the point of the kill
	n.ts.CloseClientConnections()
	n.killed = true
}

// revive boots a fresh server on the node's original URL.
func (n *testNode) revive(cfg server.Config) {
	n.t.Helper()
	n.boot(cfg)
	n.dead.Store(false)
	n.killed = false
}

// TestOverflowRoutingRotates pins the fleet-level GP invariant on the
// routing path itself: once a home node's scraped queue depth crosses
// the overflow threshold, successive submissions spill to the other
// nodes in strict rotation — none re-targeted before the pointer wraps —
// and when everyone is overloaded the job stays home rather than
// bouncing.
func TestOverflowRoutingRotates(t *testing.T) {
	urls := []string{"http://n1", "http://n2", "http://n3", "http://n4"}
	c, err := New(Config{Nodes: urls, OverflowDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background()) //lint:allow errdrop no loops are running

	const key = "deadbeef"
	home, overflow, err := c.route(key)
	if err != nil {
		t.Fatal(err)
	}
	if overflow {
		t.Fatal("unloaded fleet routed overflow")
	}
	hn, _ := c.nodeByURL(home)
	hn.setDepth(10)

	others := 0
	for _, u := range urls {
		if u != home {
			others++
		}
	}
	for window := 0; window < 3; window++ {
		seen := map[string]bool{}
		for i := 0; i < others; i++ {
			tgt, ov, err := c.route(key)
			if err != nil {
				t.Fatal(err)
			}
			if !ov || tgt == home {
				t.Fatalf("window %d: overloaded home not spilled (target %s, overflow %t)", window, tgt, ov)
			}
			if seen[tgt] {
				t.Fatalf("window %d: node %s re-targeted before the GP pointer wrapped", window, tgt)
			}
			seen[tgt] = true
		}
	}

	// All overloaded: the ring home keeps the job (no thrashing).
	for _, u := range urls {
		nn, _ := c.nodeByURL(u)
		nn.setDepth(10)
	}
	if tgt, ov, err := c.route(key); err != nil || ov || tgt != home {
		t.Fatalf("all-overloaded fleet routed %s (overflow %t, err %v), want home %s", tgt, ov, err, home)
	}
}

// TestProbeEjectAndReadmit steps the health machinery against a stub
// node: failures accumulate through suspect to ejected at the threshold,
// and a single good probe readmits the node, rescrapes its queue gauges
// and learns its advertised drain deadline.
func TestProbeEjectAndReadmit(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			if healthy.Load() {
				server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			} else {
				server.WriteError(w, http.StatusInternalServerError, "boom")
			}
		case "/metrics":
			server.WriteJSON(w, http.StatusOK, nodeMetrics{QueueDepth: 2, QueueCapacity: 64})
		case "/version":
			server.WriteJSON(w, http.StatusOK, map[string]string{"drain_timeout_ms": "5000"})
		default:
			http.NotFound(w, r)
		}
	}))
	defer stub.Close()

	c, err := New(Config{Nodes: []string{stub.URL}, FailThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background()) //lint:allow errdrop no loops are running
	ctx := context.Background()

	c.ProbeOnce(ctx)
	n, _ := c.nodeByURL(stub.URL)
	if got := n.currentStatus(); got != NodeHealthy {
		t.Fatalf("after good probe: %s", got)
	}
	if got := n.currentDepth(); got != 2 {
		t.Errorf("scraped queue depth %d, want 2", got)
	}
	n.mu.Lock()
	drain := n.drain
	n.mu.Unlock()
	if drain != 5*time.Second {
		t.Errorf("scraped drain deadline %v, want 5s", drain)
	}

	healthy.Store(false)
	c.ProbeOnce(ctx)
	c.ProbeOnce(ctx)
	if got := n.currentStatus(); got != NodeSuspect {
		t.Fatalf("after 2 failures: %s, want suspect", got)
	}
	if _, _, err := c.route("k"); err == nil {
		t.Fatal("suspect-only fleet still routed a job")
	}
	c.ProbeOnce(ctx)
	if got := n.currentStatus(); got != NodeEjected {
		t.Fatalf("after 3 failures: %s, want ejected", got)
	}
	if got := c.ctr.nodesEjected.Load(); got != 1 {
		t.Errorf("nodes_ejected_total = %d, want 1", got)
	}

	healthy.Store(true)
	c.ProbeOnce(ctx)
	if got := n.currentStatus(); got != NodeHealthy {
		t.Fatalf("after recovery probe: %s, want healthy", got)
	}
	if got := c.ctr.nodesReadmitted.Load(); got != 1 {
		t.Errorf("nodes_readmitted_total = %d, want 1", got)
	}
	if tgt, _, err := c.route("k"); err != nil || tgt != stub.URL {
		t.Fatalf("readmitted node not routable: %s, %v", tgt, err)
	}
}

// fleetWireJob mirrors fleetJobResponse for decoding in tests.
type fleetWireJob struct {
	ID        string          `json:"id"`
	CacheKey  string          `json:"cache_key"`
	Node      string          `json:"node"`
	NodeJobID string          `json:"node_job_id"`
	Status    string          `json:"status"`
	Overflow  bool            `json:"overflow"`
	Failovers int             `json:"failovers"`
	Resumed   bool            `json:"resumed_by_failover"`
	Job       json.RawMessage `json:"job"`
}

// innerWireJob mirrors a node's job document, stats kept raw for byte
// identity checks.
type innerWireJob struct {
	ID               string          `json:"id"`
	Status           string          `json:"status"`
	CacheKey         string          `json:"cache_key"`
	Error            string          `json:"error"`
	Resumed          bool            `json:"resumed"`
	ResumedFromCycle int             `json:"resumed_from_cycle"`
	Stats            json.RawMessage `json:"stats"`
}

func postJSONAs[T any](t *testing.T, url, body string) (T, int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v, resp.StatusCode
}

func getJSONAs[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitNodeTerminal polls a node's job until it leaves the queue/run
// states.
func waitNodeTerminal(t *testing.T, base, id string) innerWireJob {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		j := getJSONAs[innerWireJob](t, base+"/v1/jobs/"+id)
		if server.Status(j.Status).Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node job %s did not finish in time", id)
	return innerWireJob{}
}

// waitFleetTerminal polls the coordinator's view of a fleet job.
func waitFleetTerminal(t *testing.T, base, id string) fleetWireJob {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		j := getJSONAs[fleetWireJob](t, base+"/v1/jobs/"+id)
		if server.Status(j.Status).Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("fleet job %s did not finish in time", id)
	return fleetWireJob{}
}

// fleetGate holds a job at one cycle boundary when armed; sync.Once
// keeps the signal single-shot across the per-cycle callbacks.
type fleetGate struct {
	armed   atomic.Bool
	once    sync.Once
	started chan struct{}
	at      int
}

func newFleetGate(at int) *fleetGate {
	return &fleetGate{started: make(chan struct{}), at: at}
}

func (g *fleetGate) fn(ctx context.Context, cycle int) {
	if g.armed.Load() && cycle == g.at {
		g.once.Do(func() { close(g.started) })
		<-ctx.Done()
	}
}
