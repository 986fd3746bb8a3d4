package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"simdtree/internal/checkpoint"
	"simdtree/internal/server"
)

// SyncOnce refreshes every non-terminal job's status from its owning
// node and pulls a warm copy of its latest spooled checkpoint.  The
// pulled bytes are what failover ships to a survivor when the owning
// node dies without a chance to hand anything off — the coordinator is
// the only place the checkpoint outlives the node.  Then it retries the
// failover of every ejected node.  The background sync loop calls this on
// its cadence; tests call it to step deterministically.
func (c *Coordinator) SyncOnce(ctx context.Context) {
	for _, f := range c.jobs.All() {
		f.mu.Lock()
		terminal, node, nodeJobID := f.terminal, f.node, f.nodeJobID
		f.mu.Unlock()
		if terminal || node == "" {
			continue
		}
		if _, status := c.refresh(ctx, f, node+"/v1/jobs/"+nodeJobID); status == "" || server.Status(status).Terminal() {
			continue
		}
		c.pullCheckpoint(ctx, f, node, nodeJobID)
	}
	for _, u := range c.order {
		if n, ok := c.nodeByURL(u); ok && n.currentStatus() == NodeEjected {
			c.failover(ctx, u)
		}
	}
}

// pullCheckpoint fetches the job's latest spooled checkpoint from its
// node.  A 404 (no checkpoint yet) and a 409 (node runs spool-less) are
// normal; anything that parses as a valid SCKP frame replaces the warm
// copy.
func (c *Coordinator) pullCheckpoint(ctx context.Context, f *fleetJob, node, nodeJobID string) {
	code, b, err := c.call(ctx, http.MethodGet, node+"/v1/jobs/"+nodeJobID+"/checkpoint", "", nil)
	if err != nil || code != http.StatusOK {
		return
	}
	if _, err := checkpoint.Peek(b); err != nil {
		return
	}
	f.mu.Lock()
	f.ckpt = b
	f.mu.Unlock()
	c.ctr.checkpointsPulled.Add(1)
}

// failover re-dispatches every non-terminal job owned by the dead node
// to a survivor.  The target is the key's next ring owner among the
// remaining routable nodes, so the key's routing stays consistent for
// the rest of the outage.  A job with a warm checkpoint is shipped via
// the survivor's import endpoint and resumes from its last cycle
// boundary; a job without one (it died queued, or before its first
// checkpoint cadence) is re-submitted fresh.  Either way the completed
// result is byte-identical to an uninterrupted run, by the determinism
// contract.  A job no survivor takes stays with the dead node until a
// sync's retry; failovers run one at a time, so no job moves twice.
func (c *Coordinator) failover(ctx context.Context, dead string) {
	c.failoverMu.Lock()
	defer c.failoverMu.Unlock()
	for _, f := range c.jobs.All() {
		f.mu.Lock()
		owned := !f.terminal && f.node == dead
		ckpt := f.ckpt
		f.mu.Unlock()
		if !owned {
			continue
		}
		target, ok := c.ring.Lookup(f.key, func(u string) bool {
			return u != dead && c.routable(u)
		})
		if !ok {
			f.mu.Lock()
			f.lastErr = "failover: no routable survivor"
			f.unreachable = true
			f.mu.Unlock()
			continue
		}
		var nj nodeJob
		var doc json.RawMessage
		resumed := false
		if ckpt != nil {
			var err error
			nj, doc, err = c.importCheckpoint(ctx, target, ckpt, f.tenant)
			resumed = err == nil
		}
		if !resumed {
			var err error
			if nj, doc, err = c.submitToNode(ctx, target, f.spec, f.tenant); err != nil {
				f.mu.Lock()
				f.lastErr = fmt.Sprintf("failover to %s: %v", target, err)
				f.unreachable = true
				f.mu.Unlock()
				continue
			}
		}
		f.place(target, nj, doc, resumed)
		f.mu.Lock()
		f.failovers++
		f.mu.Unlock()
		c.ctr.jobsFailedOver.Add(1)
		if resumed {
			c.ctr.failoverResumed.Add(1)
		}
	}
}

// importCheckpoint ships a warm checkpoint of tenant's job to a survivor's
// import endpoint and returns the node's job record and document.
func (c *Coordinator) importCheckpoint(ctx context.Context, target string, ckpt []byte, tenant string) (nodeJob, json.RawMessage, error) {
	nj, doc, err := c.callJob(ctx, target+"/v1/jobs/import", checkpoint.ContentType, ckpt, http.Header{server.TenantHeader: {tenant}})
	if refusalOf(err) != nil {
		err = fmt.Errorf("import: %w", err)
	}
	return nj, doc, err
}
