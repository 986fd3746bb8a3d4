package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"simdtree/internal/server"
)

// The coordinator serves a node's /v1/jobs API: a client that speaks
// simdserve speaks simdfleet.  Its front door is the node's own frontend
// (server.NewFrontend, over traffic.go's SubmitCanonical), and what the
// two must agree on byte for byte — bodies, errors, strict decoding, event
// streams, traces — is the node's own code (internal/server/wire.go), called from here; a node's refusal
// passes through with the node's status, message and Retry-After.
// Responses wrap the owning node's verbatim job document in a fleet
// envelope that adds the routing facts (node, overflow, failovers).

// nodeJob is the slice of a node's job JSON the coordinator reads.
type nodeJob struct {
	ID       string        `json:"id"`
	Status   server.Status `json:"status"`
	CacheHit bool          `json:"cache_hit"`
}

// fleetJobResponse is the coordinator's wire form of a routed job
// (fleetJob.snapshot): the routing facts around the node's verbatim
// document, Job.
type fleetJobResponse struct {
	ID          string          `json:"id"`
	CacheKey    string          `json:"cache_key"`
	Node        string          `json:"node"`
	NodeJobID   string          `json:"node_job_id"`
	Status      string          `json:"status"`
	Overflow    bool            `json:"overflow,omitempty"`
	Failovers   int             `json:"failovers,omitempty"`
	Resumed     bool            `json:"resumed_by_failover,omitempty"`
	Unreachable bool            `json:"node_unreachable,omitempty"`
	Error       string          `json:"error,omitempty"`
	Job         json.RawMessage `json:"job,omitempty"`
}

// Handler returns the coordinator's HTTP front door: the node's frontend
// admitting through SubmitCanonical, over the routes of routes.
func (c *Coordinator) Handler() http.Handler { return c.front }

// routes is the routing table of everything the frontend passes through.
func (c *Coordinator) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleEvents)
	mux.HandleFunc("GET /v1/jobs", c.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", c.handleTrace)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /fleet", c.handleFleet)
	return mux
}

// call is the coordinator's one way to ask a node something without
// headers, server.RoundTrip over its client (the SSE proxy, which must not
// buffer, is the only code with a client of its own).
func (c *Coordinator) call(ctx context.Context, method, url, contentType string, body []byte) (int, []byte, error) {
	code, resp, _, err := server.RoundTrip(ctx, c.client, method, url, contentType, body, nil)
	return code, resp, err
}

// refusedError is a node's own refusal of a submission or an import: the
// status, error string and Retry-After it answered with, so
// SubmitCanonical can tell the client exactly what the node said.
type refusedError struct{ server.Refusal }

func (e *refusedError) Error() string { return fmt.Sprintf("node answered %d: %s", e.Code, e.Message) }

// refusalOf returns the node's answer inside err, nil when err is a
// transport failure (or nil).
func refusalOf(err error) *server.Refusal {
	var re *refusedError
	if errors.As(err, &re) {
		return &re.Refusal
	}
	return nil
}

// callJob POSTs to one of the two node endpoints that answer a job
// document, /v1/jobs and /v1/jobs/import.  A nil error means the node
// took the job (202, or 200 from its cache); any other status comes back
// as a *refusedError.
func (c *Coordinator) callJob(ctx context.Context, url, contentType string, body []byte, header http.Header) (nodeJob, json.RawMessage, error) {
	code, raw, hdr, err := server.RoundTrip(ctx, c.client, http.MethodPost, url, contentType, body, header)
	if err != nil {
		return nodeJob{}, nil, err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		re := &refusedError{server.Refusal{Code: code, Message: server.ReadError(raw)}}
		if n, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil {
			re.RetryAfter = n
		}
		return nodeJob{}, nil, re
	}
	var nj nodeJob
	if err := json.Unmarshal(raw, &nj); err != nil {
		return nodeJob{}, nil, err
	}
	return nj, raw, nil
}

// submitToNode POSTs a canonical spec to one node's /v1/jobs, forwarding
// the submitting tenant.
func (c *Coordinator) submitToNode(ctx context.Context, target string, specJSON []byte, tenant string) (nodeJob, json.RawMessage, error) {
	return c.callJob(ctx, target+"/v1/jobs", "application/json", specJSON, http.Header{server.TenantHeader: {tenant}})
}

// owned is the preamble of the four per-job routes: it resolves {id} to
// its fleet record, answering 404 itself (f is then nil), and to the node
// that owns the job and jobURL, its document there.
func (c *Coordinator) owned(w http.ResponseWriter, r *http.Request) (f *fleetJob, node, jobURL string) {
	f, ok := c.jobs.Get(r.PathValue("id"))
	if !ok {
		server.WriteError(w, http.StatusNotFound, "unknown job id")
		return nil, "", ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f, f.node, f.node + "/v1/jobs/" + f.nodeJobID
}

// handleGet implements GET /v1/jobs/{id}: proxy to the owning node and
// refresh the fleet record.  When the node is unreachable (mid-outage),
// the last known state is served with node_unreachable set, so pollers
// keep working across a failover window.
func (c *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	f, _, jobURL := c.owned(w, r)
	if f == nil {
		return
	}
	body, _ := c.refresh(r.Context(), f, jobURL)
	server.WriteJSON(w, http.StatusOK, f.snapshot(body))
}

// refresh GETs f's job document from its owning node and records the
// status it carries, returning both ("" when none was learned).  A node
// that answers 404 no longer holds the job, which ends f as failed; any
// other answer but 200 marks f unreachable.  Neither yields a document.
func (c *Coordinator) refresh(ctx context.Context, f *fleetJob, jobURL string) (body []byte, status string) {
	code, body, err := c.call(ctx, http.MethodGet, jobURL, "", nil)
	if err == nil && code == http.StatusNotFound {
		// The node evicted the finished job first, or restarted without it.
		f.mu.Lock()
		if !f.terminal && f.node+"/v1/jobs/"+f.nodeJobID == jobURL {
			f.lastErr = "node " + f.node + " no longer holds job " + f.nodeJobID
			f.setLocked(string(server.StatusFailed), nil)
		}
		f.mu.Unlock()
		return nil, ""
	}
	if err != nil || code != http.StatusOK {
		f.mu.Lock()
		f.unreachable = true
		f.mu.Unlock()
		return nil, ""
	}
	var nj nodeJob
	if json.Unmarshal(body, &nj) != nil {
		return body, ""
	}
	f.observe(string(nj.Status), body)
	return body, string(nj.Status)
}

// handleCancel implements DELETE /v1/jobs/{id}, proxied to the owner with
// the caller's X-Tenant, so the node refuses a tenant that is not the
// job's (a 403 that passes through) exactly as it would unproxied.
func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	f, node, jobURL := c.owned(w, r)
	if f == nil {
		return
	}
	code, body, _, err := server.RoundTrip(r.Context(), c.client, http.MethodDelete, jobURL, "", nil,
		http.Header{server.TenantHeader: r.Header.Values(server.TenantHeader)})
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, fmt.Sprintf("node %s: %v", node, err))
		return
	}
	if code != http.StatusOK {
		server.WriteRaw(w, code, body)
		return
	}
	var nj nodeJob
	if json.Unmarshal(body, &nj) == nil {
		f.observe(string(nj.Status), body)
	}
	server.WriteJSON(w, http.StatusOK, f.snapshot(body))
}

// handleTrace implements GET /v1/jobs/{id}/trace as a pure proxy,
// passing the query string (including ?trace_limit=) through to the
// owning node.
func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	f, node, jobURL := c.owned(w, r)
	if f == nil {
		return
	}
	code, body, err := c.call(r.Context(), http.MethodGet, withQuery(jobURL+"/trace", r), "", nil)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, fmt.Sprintf("node %s: %v", node, err))
		return
	}
	server.WriteRaw(w, code, body)
}

// withQuery appends r's query string to url.
func withQuery(url string, r *http.Request) string {
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	return url
}

// handleList implements GET /v1/jobs: the fleet's job records, oldest
// first, without proxying (statuses are as fresh as the last sync).
func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := c.jobs.All()
	out := make([]fleetJobResponse, 0, len(jobs))
	for _, f := range jobs {
		out = append(out, f.snapshot(nil))
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// handleHealthz reports coordinator liveness: ok while at least one
// node is routable.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if c.healthyNodes() == 0 {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no healthy nodes"})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// healthyNodes counts the nodes currently accepting new work.
func (c *Coordinator) healthyNodes() int {
	n := 0
	for _, u := range c.order {
		if c.routable(u) {
			n++
		}
	}
	return n
}

// fleetNodeJSON is one node's row in the /fleet document.
type fleetNodeJSON struct {
	URL            string  `json:"url"`
	Status         string  `json:"status"`
	QueueDepth     int     `json:"queue_depth"`
	QueueCapacity  int     `json:"queue_capacity"`
	Failures       int     `json:"failures"`
	DrainTimeoutMS int64   `json:"drain_timeout_ms"`
	LastSeenAgeSec float64 `json:"last_seen_age_seconds,omitempty"`
	// ScrapedAgoMS is the age of the last queue-gauge scrape, -1 when the
	// node has never been scraped.  Overflow spill and steal receiver
	// selection both skip nodes whose scrape is older than one probe
	// interval — routing on stale depth is how herds form.
	ScrapedAgoMS int64 `json:"scraped_ago_ms"`
}

// handleFleet implements GET /fleet: the membership, health and routing
// state an operator needs to see at a glance.
func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	nodes := make([]fleetNodeJSON, 0, len(c.order))
	for _, u := range c.order {
		n, ok := c.nodeByURL(u)
		if !ok {
			continue
		}
		n.mu.Lock()
		row := fleetNodeJSON{
			URL:            n.url,
			Status:         string(n.status),
			QueueDepth:     n.queueDepth,
			QueueCapacity:  n.queueCap,
			Failures:       n.failures,
			DrainTimeoutMS: n.drain.Milliseconds(),
			ScrapedAgoMS:   -1,
		}
		if !n.lastSeen.IsZero() {
			row.LastSeenAgeSec = now.Sub(n.lastSeen).Seconds()
		}
		if !n.scraped.IsZero() {
			row.ScrapedAgoMS = now.Sub(n.scraped).Milliseconds()
		}
		n.mu.Unlock()
		nodes = append(nodes, row)
	}
	// The jobs the steal controller split, as the last sync or proxy saw
	// them; each node's document has the shards.
	type stealJobJSON struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	stealJobs := make([]stealJobJSON, 0)
	for _, f := range c.jobs.All() {
		f.mu.Lock()
		if f.stolen {
			stealJobs = append(stealJobs, stealJobJSON{ID: f.id, Status: f.status})
		}
		f.mu.Unlock()
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"nodes": nodes,
		"ring": map[string]any{
			"replicas": c.ring.Replicas(),
			"points":   len(c.ring.points),
		},
		"gp_pointer": c.gp.Pointer(),
		"steal": map[string]any{
			"pointer": c.stealGP.Pointer(),
			"jobs":    stealJobs,
		},
	})
}

// Metrics is the coordinator's /metrics document, each key named here and
// nowhere else; its frontend adds its own counters before writing it.
func (c *Coordinator) Metrics() map[string]any {
	return map[string]any{
		"uptime_seconds":                 time.Since(c.started).Seconds(),
		"nodes_total":                    len(c.order),
		"nodes_healthy":                  c.healthyNodes(),
		"jobs_routed_total":              c.ctr.jobsRouted.Load(),
		"jobs_overflow_routed_total":     c.ctr.jobsOverflow.Load(),
		"jobs_failed_over_total":         c.ctr.jobsFailedOver.Load(),
		"jobs_failed_over_resumed_total": c.ctr.failoverResumed.Load(),
		"checkpoints_pulled_total":       c.ctr.checkpointsPulled.Load(),
		"probes_total":                   c.ctr.probes.Load(),
		"probe_failures_total":           c.ctr.probeFailures.Load(),
		"nodes_ejected_total":            c.ctr.nodesEjected.Load(),
		"nodes_readmitted_total":         c.ctr.nodesReadmitted.Load(),
		"jobs_stolen_total":              c.ctr.jobsStolen.Load(),
	}
}
