package cluster

import (
	"context"
	"encoding/json"

	"simdtree/internal/server"
)

// The steal controller: the paper's work-stealing idea applied across
// nodes.  Where a single machine's LB phase moves stack segments between
// PEs, the controller spreads one running job over several nodes: it asks
// the job's node to split it into contiguous PE-range shards, keeping
// shard 0, with receivers picked by the cluster-wide GP pointer hosting
// the rest.  The node's worker drives them in lock-step with steal.Driver
// (server.Server's handleSteal); every global decision in the driven run
// is a function of globally reduced scalars, so the distributed schedule —
// and therefore the stats, trace and checkpoints — is byte-identical to
// the single-node run the job would have had.
//
// The node owns the distributed run as it owns the job, so to the fleet a
// stolen job is an ordinary node job: proxied, synced, failed over from
// its spooled checkpoints, and cached on its node when it finishes.

// StealOnce sweeps the fleet for one steal opportunity: the oldest running
// job whose node reports it stealable, paired with receiver nodes picked
// by the cluster-wide GP rotation (routable, freshly scraped, not the
// donor).  It returns the fleet id of the job it split, or "" when nothing
// was stealable.  The background steal loop calls this on its cadence;
// tests call it to step deterministically.
func (c *Coordinator) StealOnce(ctx context.Context) (string, error) {
	for _, f := range c.jobs.All() {
		f.mu.Lock()
		candidate := !f.terminal && f.node != ""
		donor, jobURL := f.node, f.node+"/v1/jobs/"+f.nodeJobID
		f.mu.Unlock()
		if !candidate || !c.routable(donor) {
			continue
		}
		var verdict server.StealableResponse
		if !c.getInto(ctx, jobURL+"/stealable", &verdict) || !verdict.Stealable {
			continue
		}
		// One receiver pick per remote shard.  With one eligible node the
		// pointer wraps back to it; with many, consecutive steals fan out
		// round-robin — the GP invariant, cluster-wide.
		shards := []string{donor}
		for len(shards) < min(c.cfg.StealShards, verdict.P) {
			alt, ok := c.stealGP.Pick(func(u string) bool {
				return u != donor && c.routable(u) && c.fresh(u)
			})
			if !ok {
				break
			}
			shards = append(shards, alt)
		}
		if len(shards) < 2 {
			continue // no receiver in reach; nothing to steal onto
		}
		if err := c.steal(ctx, f, jobURL, shards); err != nil {
			f.mu.Lock()
			f.lastErr = "steal: " + err.Error()
			f.mu.Unlock()
			return "", err
		}
		return f.id, nil
	}
	return "", nil
}

// steal asks the node at jobURL to split f's job over shards, and records
// the job document it answers with once the distributed run started.
func (c *Coordinator) steal(ctx context.Context, f *fleetJob, jobURL string, shards []string) error {
	body, err := json.Marshal(server.StealRequest{Shards: shards})
	if err != nil {
		return err
	}
	nj, doc, err := c.callJob(ctx, jobURL+"/steal", "application/json", body, nil)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.stolen = true
	f.mu.Unlock()
	f.observe(string(nj.Status), doc)
	c.ctr.jobsStolen.Add(1)
	return nil
}
