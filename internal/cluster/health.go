package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// NodeStatus is a node's lifecycle state as the coordinator sees it.
type NodeStatus string

const (
	// NodeHealthy nodes accept new work.
	NodeHealthy NodeStatus = "healthy"
	// NodeDraining nodes answered /healthz with a draining signal; no
	// new work is routed to them, and probe failures are not counted
	// against them until their advertised drain deadline has elapsed.
	NodeDraining NodeStatus = "draining"
	// NodeSuspect nodes failed recent probes but have not crossed the
	// ejection threshold; no new work is routed to them.
	NodeSuspect NodeStatus = "suspect"
	// NodeEjected nodes crossed the failure threshold; their in-flight
	// jobs have been failed over.  Probing continues with backoff, and
	// a succeeding probe readmits them.
	NodeEjected NodeStatus = "ejected"
)

// backoffMax caps the exponential probe backoff for an unreachable node.
const backoffMax = 30 * time.Second

// node is the coordinator's view of one backend.
type node struct {
	url string

	mu            sync.Mutex
	status        NodeStatus
	failures      int           // consecutive probe failures
	backoff       time.Duration // current probe backoff while failing
	nextProbe     time.Time     // earliest next probe while failing
	drainingSince time.Time     // first draining observation
	drain         time.Duration // node-advertised drain deadline (/version)
	queueDepth    int           // last scraped queue_depth
	queueCap      int           // last scraped queue_capacity
	scraped       time.Time     // when the queue gauges were last scraped
	lastSeen      time.Time     // last successful probe
}

func newNode(url string) *node {
	return &node{url: url, status: NodeHealthy}
}

func (n *node) currentStatus() NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.status
}

func (n *node) currentDepth() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.queueDepth
}

// setDepth overrides the scraped queue depth; tests use it to create
// synthetic skew without standing up loaded nodes.
func (n *node) setDepth(d int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.queueDepth = d
}

// ProbeOnce sweeps every node immediately, ignoring backoff schedules.
// The background prober calls the same path on its cadence; tests call
// this to step the health machinery deterministically.
func (c *Coordinator) ProbeOnce(ctx context.Context) {
	c.probe(ctx, true)
}

// probe sweeps the fleet.  force ignores per-node backoff windows.
// Ejections are collected first and failed over after the sweep, so a
// dead node's jobs move in one pass.
func (c *Coordinator) probe(ctx context.Context, force bool) {
	now := time.Now()
	var ejected []string
	for _, url := range c.order {
		n, ok := c.nodeByURL(url)
		if !ok {
			continue
		}
		n.mu.Lock()
		due := force || n.failures == 0 || !now.Before(n.nextProbe)
		n.mu.Unlock()
		if !due {
			continue
		}
		if c.probeNode(ctx, n, now) {
			ejected = append(ejected, url)
		}
	}
	for _, url := range ejected {
		c.failover(ctx, url)
	}
}

// nodeHealth mirrors the fields of a node's /healthz body.
type nodeHealth struct {
	Status string `json:"status"`
}

// nodeMetrics mirrors the queue gauges of a node's /metrics body.
type nodeMetrics struct {
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
}

// probeNode probes one node and updates its state; it reports whether
// this probe ejected the node (the caller then runs failover).
func (c *Coordinator) probeNode(ctx context.Context, n *node, now time.Time) bool {
	c.ctr.probes.Add(1)
	code, body, err := c.call(ctx, http.MethodGet, n.url+"/healthz", "", nil)
	var h nodeHealth
	if err == nil {
		// /healthz answers 200 when serving and 503 while draining;
		// both bodies carry the status string.
		if jerr := json.Unmarshal(body, &h); jerr != nil {
			err = jerr
		}
	}
	switch {
	case err == nil && code == http.StatusOK && h.Status == "ok":
		c.markHealthy(ctx, n, now)
		return false
	case err == nil && h.Status == "draining":
		return c.markDraining(n, now)
	default:
		c.ctr.probeFailures.Add(1)
		return c.markFailed(n, now)
	}
}

// markHealthy records a successful probe: readmission if the node was
// ejected, plus a queue-gauge scrape (and a drain-deadline scrape when
// it is not yet known).
func (c *Coordinator) markHealthy(ctx context.Context, n *node, now time.Time) {
	n.mu.Lock()
	wasEjected := n.status == NodeEjected
	needDrain := n.drain == 0
	n.status = NodeHealthy
	n.failures = 0
	n.backoff = 0
	n.drainingSince = time.Time{}
	n.lastSeen = now
	n.mu.Unlock()
	if wasEjected {
		c.ctr.nodesReadmitted.Add(1)
	}
	var m nodeMetrics
	if c.getInto(ctx, n.url+"/metrics", &m) {
		n.mu.Lock()
		n.queueDepth = m.QueueDepth
		n.queueCap = m.QueueCapacity
		n.scraped = time.Now()
		n.mu.Unlock()
	}
	if needDrain || wasEjected {
		c.scrapeDrain(ctx, n)
	}
}

// scrapeDrain reads the node's advertised graceful-drain deadline from
// /version, so ejection of a draining node waits exactly that long.
func (c *Coordinator) scrapeDrain(ctx context.Context, n *node) {
	var v map[string]string
	if !c.getInto(ctx, n.url+"/version", &v) {
		return
	}
	ms, err := strconv.ParseInt(v["drain_timeout_ms"], 10, 64)
	if err != nil || ms < 0 {
		return
	}
	n.mu.Lock()
	n.drain = time.Duration(ms) * time.Millisecond
	n.mu.Unlock()
}

// markDraining handles a node that is shutting down gracefully: new
// work stops immediately, but the failure countdown starts only after
// the node's own advertised drain deadline has elapsed — the node told
// us exactly how long its jobs may keep running.
func (c *Coordinator) markDraining(n *node, now time.Time) bool {
	n.mu.Lock()
	if n.drainingSince.IsZero() {
		n.drainingSince = now
	}
	deadline := n.drainingSince.Add(n.drain)
	n.status = NodeDraining
	n.lastSeen = now
	overdue := n.drain > 0 && now.After(deadline)
	n.mu.Unlock()
	if overdue {
		return c.markFailed(n, now)
	}
	return false
}

// markFailed counts a consecutive probe failure with exponential
// backoff; crossing the threshold ejects the node and reports true so
// the caller runs failover.
func (c *Coordinator) markFailed(n *node, now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.failures++
	if n.backoff == 0 {
		n.backoff = c.cfg.ProbeInterval
		if n.backoff <= 0 {
			n.backoff = time.Second
		}
	} else {
		n.backoff *= 2
	}
	if n.backoff > backoffMax {
		n.backoff = backoffMax
	}
	n.nextProbe = now.Add(n.backoff)
	if n.status == NodeEjected {
		return false
	}
	if n.failures >= c.cfg.FailThreshold {
		n.status = NodeEjected
		c.ctr.nodesEjected.Add(1)
		return true
	}
	n.status = NodeSuspect
	return false
}

// getInto GETs url and decodes a 200 answer's JSON body into v,
// reporting whether it got one.
func (c *Coordinator) getInto(ctx context.Context, url string, v any) bool {
	code, body, err := c.call(ctx, http.MethodGet, url, "", nil)
	return err == nil && code == http.StatusOK && json.Unmarshal(body, v) == nil
}
