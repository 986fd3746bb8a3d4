package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"simdtree/internal/server"
)

// Fleet-side traffic management, mirroring the node-level traffic layer
// (internal/traffic) one level up: identical in-flight specs collapse
// onto one routed job ring-wide, batches fan out through the same router
// as single submissions, and a node's SSE progress stream proxies
// through the coordinator with the same resume semantics.

// collapseLookup returns the live fleet job an identical spec should
// collapse onto, dropping stale (terminal) entries on the way.
func (c *Coordinator) collapseLookup(key string) (*fleetJob, bool) {
	c.inflightMu.Lock()
	id, ok := c.inflight[key]
	c.inflightMu.Unlock()
	if !ok {
		return nil, false
	}
	f, ok := c.jobs.get(id)
	if !ok || terminalStatus(f.snapshot(nil).Status) {
		c.inflightMu.Lock()
		if c.inflight[key] == id {
			delete(c.inflight, key)
		}
		c.inflightMu.Unlock()
		return nil, false
	}
	return f, true
}

// collapseStore registers a freshly routed non-terminal job as the
// collapse target for its key.
func (c *Coordinator) collapseStore(key, id string) {
	c.inflightMu.Lock()
	c.inflight[key] = id
	c.inflightMu.Unlock()
}

// submitOne admits one canonical spec: collapse, route, forward, record.
// A nil Refusal means success.  A node's refusal of the spec itself — a
// 400, the 413 of its memory limit — passes through with the node's
// status and message, and no second node is asked.  A node that is full
// (429), draining (503) or unreachable gets one GP retry on an
// underloaded alternate; when that fails too the client sees what a node
// last answered, Retry-After included, or a 503 naming the transport
// error when none answered.  The node cache makes the collapse safe:
// even when two identical specs race past each other here, the second
// lands on the same ring node and hits its cache or its node-level
// flight table.
func (c *Coordinator) submitOne(ctx context.Context, canonical server.JobSpec, tenant string) (f *fleetJob, raw json.RawMessage, collapsed bool, rf *server.Refusal) {
	key := server.CacheKey(canonical)
	if f, ok := c.collapseLookup(key); ok {
		c.ctr.jobsCollapsed.Add(1)
		return f, nil, true, nil
	}
	specJSON, err := json.Marshal(canonical)
	if err != nil {
		return nil, nil, false, &server.Refusal{Code: http.StatusInternalServerError, Message: err.Error()}
	}
	target, overflow, err := c.route(key)
	if err != nil {
		return nil, nil, false, &server.Refusal{Code: http.StatusServiceUnavailable, Message: err.Error()}
	}
	nj, raw, err := c.submitToNode(ctx, target, specJSON, tenant)
	if rf := refusalOf(err); err != nil && (rf == nil || rf.Code == http.StatusTooManyRequests || rf.Code == http.StatusServiceUnavailable) {
		// The routed node is full, draining, or vanished between probe
		// and submit; give the GP pointer one chance to place the job
		// elsewhere.
		alt, ok := c.gp.Pick(func(u string) bool {
			return u != target && c.routable(u) && c.fresh(u) && c.depth(u) <= c.cfg.OverflowDepth
		})
		if ok {
			nj2, raw2, err2 := c.submitToNode(ctx, alt, specJSON, tenant)
			if err2 == nil || rf == nil || refusalOf(err2) != nil {
				// The alternate's verdict stands — unless it never
				// answered and the first node did.
				nj, raw, err, target, overflow = nj2, raw2, err2, alt, true
			}
		}
	}
	if rf := refusalOf(err); rf != nil {
		return nil, nil, false, rf
	}
	if err != nil {
		return nil, nil, false, &server.Refusal{Code: http.StatusServiceUnavailable, Message: fmt.Sprintf("node %s: %v", target, err)}
	}
	f = &fleetJob{
		id:       "f" + strconv.FormatInt(c.nextID.Add(1), 10),
		key:      key,
		spec:     specJSON,
		overflow: overflow,
	}
	f.place(target, nj.ID, string(nj.Status), false)
	c.jobs.add(f)
	c.ctr.jobsRouted.Add(1)
	if overflow {
		c.ctr.jobsOverflow.Add(1)
	}
	if !terminalStatus(string(nj.Status)) {
		c.collapseStore(key, f.id)
	}
	return f, raw, false, nil
}

// fleetBatchItem is one per-spec verdict.
type fleetBatchItem struct {
	Index     int    `json:"index"`
	Code      int    `json:"code"`
	Error     string `json:"error,omitempty"`
	ID        string `json:"id,omitempty"`
	CacheKey  string `json:"cache_key,omitempty"`
	Node      string `json:"node,omitempty"`
	Status    string `json:"status,omitempty"`
	Collapsed bool   `json:"collapsed,omitempty"`
	Overflow  bool   `json:"overflow,omitempty"`
}

// maxFleetBatch bounds one batch submission.
const maxFleetBatch = 64

// handleBatch implements POST /v1/jobs:batch: each spec runs through the
// exact single-submission path (collapse, ring route, GP overflow retry),
// one verdict per item, always answered 200.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := server.DecodeBatch(w, r, maxFleetBatch)
	if !ok {
		return
	}
	if req.Wait {
		server.WriteError(w, http.StatusBadRequest, "the coordinator holds no connection open per batch item, so \"wait\" is not served: poll the jobs or subscribe to /v1/jobs/{id}/events")
		return
	}
	tenant, err := server.TenantFrom(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	items := make([]fleetBatchItem, len(req.Jobs))
	accepted, rejected, collapsedN := 0, 0, 0
	for i, spec := range req.Jobs {
		it := &items[i]
		it.Index = i
		canonical, err := server.Canonicalize(spec, c.domains)
		if err != nil {
			it.Code = http.StatusBadRequest
			it.Error = err.Error()
			rejected++
			continue
		}
		f, _, collapsed, rf := c.submitOne(r.Context(), canonical, tenant)
		if rf != nil {
			it.Code = rf.Code
			it.Error = rf.Message
			rejected++
			continue
		}
		v := f.snapshot(nil)
		it.ID = v.ID
		it.CacheKey = v.CacheKey
		it.Node = v.Node
		it.Status = v.Status
		it.Collapsed = collapsed
		it.Overflow = v.Overflow
		it.Code = http.StatusAccepted
		if terminalStatus(v.Status) {
			it.Code = http.StatusOK
		}
		accepted++
		if collapsed {
			collapsedN++
		}
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"accepted":  accepted,
		"rejected":  rejected,
		"collapsed": collapsedN,
		"items":     items,
	})
}

// handleEvents implements GET /v1/jobs/{id}/events: a streaming proxy of
// the owning node's SSE progress feed.  Last-Event-ID passes through, so
// a client that reconnects to the coordinator resumes exactly as it would
// against the node; every chunk is flushed as it arrives, and either
// side's disconnect tears the stream down via the request context.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	f, d, node, jobURL := c.owned(w, r)
	if f == nil {
		return
	}
	if d != nil {
		// A distributed run's events are coordinator-local; serve them
		// with the node's own stream code, heartbeats included.
		after, err := server.LastEventID(r)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		server.StreamEvents(r.Context(), w, after, d.events.Since, server.HeartbeatEvery)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, withQuery(jobURL+"/events", r), nil)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if id := r.Header.Get("Last-Event-ID"); id != "" {
		req.Header.Set("Last-Event-ID", id)
	}
	resp, err := c.stream.Do(req)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, fmt.Sprintf("node %s: %v", node, err))
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := readBounded(resp.Body) //lint:allow errdrop the error body is advisory
		server.WriteRaw(w, resp.StatusCode, body)
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	buf := make([]byte, 4096)
	for {
		// The subscriber's context cancels the upstream request, which
		// surfaces here as a read error — both directions tear down.
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if ferr := rc.Flush(); ferr != nil {
				return
			}
		}
		if err != nil {
			if err != io.EOF {
				// Mid-stream upstream failure: surface it as an SSE
				// comment before closing so the client knows the break
				// was abnormal.
				_, _ = fmt.Fprintf(w, ": upstream error: %v\n\n", err) //lint:allow errdrop the stream is over either way
				_ = rc.Flush()                                         //lint:allow errdrop the stream is over either way
			}
			return
		}
	}
}
