package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"simdtree/internal/server"
)

// The coordinator's front door is the node's own frontend
// (server.NewFrontend): collapse, batch, wait and cache-hit answers are
// written once, there.  It admits through the coordinator, whose
// SubmitCanonical routes where a node enqueues, and passes every other
// route to the coordinator's own (routes).

// CanonicalizeSpec validates and canonicalizes spec with exactly a node's
// rules, against the coordinator's domain set.
func (c *Coordinator) CanonicalizeSpec(spec server.JobSpec) (server.JobSpec, error) {
	return server.Canonicalize(spec, c.domains)
}

// SubmitCanonical routes one canonical spec and records it as a fleet job.
// A nil Refusal means success; cost is the node's to work out again.  A
// node's refusal of the spec itself — a 400, the 413 of its memory limit —
// passes through with the node's status, message and Retry-After, and no
// second node is asked.  A node that is full (429), draining (503) or
// unreachable gets one GP retry on an underloaded alternate; when that
// fails too the client sees what a node last answered, Retry-After
// included, or a 503 naming the transport error when none answered.
func (c *Coordinator) SubmitCanonical(ctx context.Context, canonical server.JobSpec, key, tenant string, _ float64) (server.Job, *server.Refusal) {
	specJSON, err := json.Marshal(canonical)
	if err != nil {
		return nil, &server.Refusal{Code: http.StatusInternalServerError, Message: err.Error()}
	}
	target, overflow, err := c.route(key)
	if err != nil {
		return nil, &server.Refusal{Code: http.StatusServiceUnavailable, Message: err.Error()}
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
		return nil, rf
	}
	if err != nil {
		return nil, &server.Refusal{Code: http.StatusServiceUnavailable, Message: fmt.Sprintf("node %s: %v", target, err)}
	}
	f := &fleetJob{
		key:      key,
		spec:     specJSON,
		tenant:   tenant,
		overflow: overflow,
		done:     make(chan struct{}),
	}
	f.place(target, nj, raw, false)
	if c.jobs.Add(f, &f.id) > 0 && c.cfg.SyncInterval == 0 && c.syncing.CompareAndSwap(false, true) {
		// No sync loop resolves the live records filling the history.
		go func() {
			defer c.syncing.Store(false)
			c.SyncOnce(c.loopCtx)
		}()
	}
	c.ctr.jobsRouted.Add(1)
	if overflow {
		c.ctr.jobsOverflow.Add(1)
	}
	return f, nil
}

// handleEvents implements GET /v1/jobs/{id}/events: a streaming proxy of
// the owning node's SSE progress feed.  Last-Event-ID passes through, so
// a client that reconnects to the coordinator resumes exactly as it would
// against the node; every chunk is flushed as it arrives, and either
// side's disconnect tears the stream down via the request context.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	f, node, jobURL := c.owned(w, r)
	if f == nil {
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
		body, _ := server.ReadBounded(resp.Body) //lint:allow errdrop the error body is advisory
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
