// Package cluster implements simdfleet, the multi-node coordination
// layer over simdserve backends.  The paper's core matching idea — idle
// PEs are paired with busy donors by a rotating global pointer so no
// donor is re-picked before the pointer wraps (§4.1, Table 1) — is
// applied one level up: the fleet's nodes are the PEs, their bounded
// job queues are the work, and the coordinator is the front end that
//
//   - routes jobs by consistent hashing on the canonical SHA-256 cache
//     key, so identical specs land on the node that already holds the
//     cached or checkpointed result (ring.go);
//   - spills overflow with a GP-style rotating pointer when the home
//     node's queue depth crosses a threshold (gpselect.go);
//   - health-probes nodes with exponential backoff, ejecting and
//     readmitting them (health.go);
//   - keeps a warm copy of every running job's latest checkpoint and,
//     on node death, ships it to a survivor so the job resumes from its
//     last cycle boundary and — by the determinism contract — still
//     produces byte-identical results (failover.go).
//
// The coordinator serves a node's /v1/jobs surface through the node's
// own code: its front door is the node's frontend (server.NewFrontend),
// admitting through Coordinator.SubmitCanonical (ring route, forward, one
// GP retry) instead of a local queue, so collapse, batch, "wait" and
// cache-hit answers are the node's; and everything else speaks the node's
// wire code (internal/server/wire.go).  A client written against one
// simdserve talks to the fleet unchanged, refusals included.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"simdtree/internal/server"
)

// Config shapes a Coordinator.  Only Nodes is required.
type Config struct {
	// Nodes are the backend base URLs (e.g. "http://127.0.0.1:18081").
	Nodes []string
	// OverflowDepth is the queue depth (as last scraped from a node's
	// /metrics) above which the home node is considered overloaded and
	// the GP pointer picks an underloaded target instead (default 8).
	OverflowDepth int
	// FailThreshold ejects a node after this many consecutive probe
	// failures (default 3).
	FailThreshold int
	// ProbeInterval is the health-probe cadence; 0 disables the
	// background prober (tests drive ProbeOnce explicitly).
	ProbeInterval time.Duration
	// SyncInterval is the job-status/checkpoint-pull cadence; 0
	// disables the background loop (tests drive SyncOnce explicitly).
	SyncInterval time.Duration
	// StealInterval is the work-stealing sweep cadence: on each tick the
	// coordinator looks for one running stealable job and fresh receiver
	// nodes, and has the job's node split it into a distributed sharded
	// run (steal.Driver over per-node shard sessions).  0 disables the
	// steal controller (tests drive StealOnce explicitly).
	StealInterval time.Duration
	// StealShards is the number of shards a stolen job is split across,
	// the donor node keeping shard 0 (default 2).
	StealShards int
	// RequestTimeout bounds every HTTP call to a node (default 10s).
	RequestTimeout time.Duration
	// ExtraDomains extends the builtin domain set the coordinator
	// canonicalizes against, for nodes running injected runners (tests).
	ExtraDomains []string
}

func (c Config) withDefaults() Config {
	if c.OverflowDepth <= 0 {
		c.OverflowDepth = 8
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.StealShards <= 0 {
		c.StealShards = 2
	}
	return c
}

// errNoNodes is returned (as a 503) when no routable node remains.
var errNoNodes = errors.New("cluster: no healthy node available")

// Coordinator fronts a fleet of simdserve nodes.
type Coordinator struct {
	cfg  Config
	ring *Ring
	gp   *GPSelector
	// stealGP is the steal controller's own rotating pointer over the node
	// list, picking receiver nodes for stolen shards.  It is separate from
	// the overflow pointer so stealing and overflow spill rotate
	// independently, but obeys the same invariant: no eligible node is
	// re-targeted before the pointer wraps.
	stealGP *GPSelector
	domains map[string]bool
	client  *http.Client
	// stream is the client for long-lived SSE proxying: no overall
	// timeout (a progress stream legitimately outlives RequestTimeout);
	// cancellation comes from the subscriber's request context.
	stream *http.Client

	nodesMu sync.RWMutex // guards the map structure only; nodes lock themselves
	nodes   map[string]*node
	order   []string // sorted node URLs, the ring/GP membership order

	// front is the coordinator's front door (Handler), admitting through
	// SubmitCanonical.
	front http.Handler

	jobs       *server.JobStore[*fleetJob]
	ctr        fleetCounters
	started    time.Time
	failoverMu sync.Mutex  // one failover at a time, the prober's or a sync's
	syncing    atomic.Bool // a sync SubmitCanonical started is running

	loopCtx  context.Context
	loopStop context.CancelFunc
	wg       sync.WaitGroup
}

// fleetCounters are the monotonic counters Coordinator.Metrics serves at
// /metrics.
type fleetCounters struct {
	jobsRouted        atomic.Int64 // jobs forwarded to their ring home
	jobsOverflow      atomic.Int64 // jobs spilled to a GP-picked target
	jobsFailedOver    atomic.Int64 // jobs re-dispatched after a node death
	failoverResumed   atomic.Int64 // ...of which resumed from a shipped checkpoint
	checkpointsPulled atomic.Int64 // warm checkpoint copies fetched from nodes
	jobsStolen        atomic.Int64 // jobs their nodes split over several nodes
	probes            atomic.Int64
	probeFailures     atomic.Int64
	nodesEjected      atomic.Int64
	nodesReadmitted   atomic.Int64
}

// New builds a Coordinator over the configured nodes and starts its
// probe and sync loops (each only when its interval is non-zero).
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: need at least one node")
	}
	seen := make(map[string]bool, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if n == "" {
			return nil, errors.New("cluster: empty node URL")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
		seen[n] = true
	}
	domains := make(map[string]bool)
	for _, d := range server.BuiltinDomains() {
		domains[d] = true
	}
	for _, d := range cfg.ExtraDomains {
		domains[d] = true
	}
	ring := NewRing(cfg.Nodes, DefaultReplicas)
	order := ring.Nodes() // sorted; the GP rotation order
	nodes := make(map[string]*node, len(order))
	for _, u := range order {
		nodes[u] = newNode(u)
	}
	//lint:allow ctxflow coordinator-lifetime root context, cancelled by Stop
	loopCtx, loopStop := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:      cfg,
		ring:     ring,
		gp:       NewGPSelector(order),
		stealGP:  NewGPSelector(order),
		domains:  domains,
		client:   &http.Client{Timeout: cfg.RequestTimeout},
		stream:   &http.Client{},
		nodes:    nodes,
		order:    order,
		jobs:     server.NewJobStore[*fleetJob]("f", server.DefaultJobHistory),
		started:  time.Now(),
		loopCtx:  loopCtx,
		loopStop: loopStop,
	}
	c.front = server.NewFrontend(c, c.routes())
	if cfg.ProbeInterval > 0 {
		c.wg.Add(1)
		go c.loop(cfg.ProbeInterval, func(ctx context.Context) { c.probe(ctx, false) })
	}
	if cfg.SyncInterval > 0 {
		c.wg.Add(1)
		go c.loop(cfg.SyncInterval, c.SyncOnce)
	}
	if cfg.StealInterval > 0 {
		c.wg.Add(1)
		go c.loop(cfg.StealInterval, func(ctx context.Context) {
			_, _ = c.StealOnce(ctx) //lint:allow errdrop per-job errors are recorded on the fleet job
		})
	}
	return c, nil
}

// Shutdown stops the background loops.  The nodes themselves are not
// owned by the coordinator and keep running.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.loopStop()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// loop runs fn at the given cadence until shutdown.
func (c *Coordinator) loop(every time.Duration, fn func(context.Context)) {
	defer c.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.loopCtx.Done():
			return
		case <-t.C:
			fn(c.loopCtx)
		}
	}
}

// nodeByURL returns the tracked node state.
func (c *Coordinator) nodeByURL(url string) (*node, bool) {
	c.nodesMu.RLock()
	defer c.nodesMu.RUnlock()
	n, ok := c.nodes[url]
	return n, ok
}

// routable reports whether url currently accepts new work.
func (c *Coordinator) routable(url string) bool {
	n, ok := c.nodeByURL(url)
	return ok && n.currentStatus() == NodeHealthy
}

// depth returns url's last scraped queue depth (0 when unknown).
func (c *Coordinator) depth(url string) int {
	n, ok := c.nodeByURL(url)
	if !ok {
		return 0
	}
	return n.currentDepth()
}

// fresh reports whether url's last queue-gauge scrape is recent enough to
// trust for placement decisions: no older than one probe interval.  A
// stale scrape means the depth could hide a pile-up that built since, so
// overflow spill and steal placement skip the node.  With the background
// prober disabled (ProbeInterval 0, tests drive ProbeOnce explicitly)
// every scrape counts as fresh.
func (c *Coordinator) fresh(url string) bool {
	if c.cfg.ProbeInterval <= 0 {
		return true
	}
	n, ok := c.nodeByURL(url)
	if !ok {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.scraped.IsZero() && time.Since(n.scraped) <= c.cfg.ProbeInterval
}

// route picks the node for a cache key: the ring home unless its queue
// depth exceeds the overflow threshold, in which case the GP pointer
// selects the next underloaded routable node (never re-targeting one
// before the pointer wraps).  The bool reports an overflow routing.
func (c *Coordinator) route(key string) (string, bool, error) {
	home, ok := c.ring.Lookup(key, c.routable)
	if !ok {
		return "", false, errNoNodes
	}
	if c.depth(home) > c.cfg.OverflowDepth {
		alt, ok := c.gp.Pick(func(u string) bool {
			return u != home && c.routable(u) && c.fresh(u) && c.depth(u) <= c.cfg.OverflowDepth
		})
		if ok {
			return alt, true, nil
		}
	}
	return home, false, nil
}
