package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"simdtree/internal/checkpoint"
	"simdtree/internal/metrics"
	"simdtree/internal/server"
	"simdtree/internal/simd"
	"simdtree/internal/steal"
	"simdtree/internal/topology"
	"simdtree/internal/trace"
)

// The steal controller: the paper's work-stealing idea applied across
// nodes.  Where a single machine's LB phase moves stack segments between
// PEs, the controller moves a whole job onto several nodes at once: it
// donates the running job off its node as an exact-prefix checkpoint,
// re-opens the checkpoint as shard sessions over disjoint PE ranges (the
// donor keeps shard 0, receivers picked by the cluster-wide GP pointer
// take the rest), and drives them in lock-step with steal.Driver.  Every
// global decision in the driven run is a function of globally reduced
// scalars, so the distributed schedule — and therefore the merged stats,
// trace and checkpoints — is byte-identical to the single-node run the
// job would have had.
//
// Failure handling leans on the same checkpoint: the driver ships every
// assembled cluster-wide checkpoint to the donor's spool, so a crashed
// coordinator or receiver leaves the donor able to resume the job
// single-node (immediately via re-import, or at restart via spool rescan).

// errStealCancelled marks a client cancel of a distributed run (DELETE on
// the fleet job), distinguishing it from coordinator shutdown.
var errStealCancelled = errors.New("distributed run cancelled by client")

// shardProv is the provenance of one shard of a distributed run, surfaced
// in /fleet and in the merged job document.
type shardProv struct {
	Node    string `json:"node"`
	Session string `json:"session"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
}

// distRun is the coordinator-held state of one stolen job's distributed
// execution — and, once finished, its locally served result.
type distRun struct {
	id     string // fleet job id
	key    string
	spec   server.JobSpec
	shards []shardProv
	events *server.EventLog // served by server.StreamEvents, like a node's per-job log
	cancel context.CancelCauseFunc
	done   chan struct{}

	mu             sync.Mutex
	status         string // running | done | cancelled | failed
	stats          *metrics.Stats
	trace          *trace.Trace
	donations      int
	localTransfers int
	errMsg         string
	lastCkpt       []byte // latest assembled cluster-wide checkpoint
}

// view snapshots the mutable fields for handlers.
func (d *distRun) view() (status string, stats *metrics.Stats, tr *trace.Trace, donations, locals int, errMsg string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.status, d.stats, d.trace, d.donations, d.localTransfers, d.errMsg
}

// finish records the run's outcome for the handlers that serve it from
// here on; err is nil for a completed run.
func (d *distRun) finish(status string, res steal.Result, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.status = status
	if err != nil {
		d.errMsg = err.Error()
	}
	d.stats, d.trace = &res.Stats, res.Trace
	d.donations, d.localTransfers = res.Donations, res.LocalTransfers
}

// distJobDoc is the merged job document of a distributed run, mirroring a
// node's job document where the fields overlap (spec, stats, efficiency,
// speedup are rendered identically) and adding the shard provenance.
type distJobDoc struct {
	ID             string         `json:"id"`
	Status         string         `json:"status"`
	CacheKey       string         `json:"cache_key"`
	Distributed    bool           `json:"distributed"`
	Shards         []shardProv    `json:"shards"`
	Donations      int            `json:"donations"`
	LocalTransfers int            `json:"local_transfers"`
	Error          string         `json:"error,omitempty"`
	Spec           server.JobSpec `json:"spec"`

	Stats      *metrics.Stats `json:"stats,omitempty"`
	Efficiency float64        `json:"efficiency,omitempty"`
	Speedup    float64        `json:"speedup,omitempty"`
}

// document renders the distributed job document for the fleet envelope.
func (d *distRun) document() json.RawMessage {
	status, stats, _, donations, locals, errMsg := d.view()
	doc := distJobDoc{
		ID:             d.id,
		Status:         status,
		CacheKey:       d.key,
		Distributed:    true,
		Shards:         d.shards,
		Donations:      donations,
		LocalTransfers: locals,
		Error:          errMsg,
		Spec:           d.spec,
	}
	if stats != nil {
		doc.Stats = stats
		doc.Efficiency = stats.Efficiency()
		doc.Speedup = stats.Speedup()
	}
	// Compact: the envelope's server.WriteJSON compacts and indents a
	// RawMessage anyway.
	b, err := json.Marshal(doc)
	if err != nil {
		// distJobDoc is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("cluster: marshal distributed job document: %v", err))
	}
	return b
}

// StealOnce sweeps the fleet for one steal opportunity: the oldest
// running, not-yet-distributed job whose node reports it stealable, paired
// with receiver nodes picked by the cluster-wide GP rotation (routable,
// freshly scraped, not the donor).  It returns the fleet id of the job it
// converted, or "" when nothing was stealable.  The background steal loop
// calls this on its cadence; tests call it to step deterministically.
func (c *Coordinator) StealOnce(ctx context.Context) (string, error) {
	for _, f := range c.jobs.all() {
		f.mu.Lock()
		candidate := !f.terminal && f.dist == nil && f.node != ""
		donor, nodeJobID := f.node, f.nodeJobID
		f.mu.Unlock()
		if !candidate || !c.routable(donor) {
			continue
		}
		var verdict server.StealableResponse
		if !c.getInto(ctx, donor+"/v1/jobs/"+nodeJobID+"/stealable", &verdict) || !verdict.Stealable {
			continue
		}
		shards := c.cfg.StealShards
		if shards > verdict.P {
			shards = verdict.P
		}
		if shards < 2 {
			continue
		}
		// One receiver pick per remote shard.  With one eligible node the
		// pointer wraps back to it; with many, consecutive steals fan out
		// round-robin — the GP invariant, cluster-wide.
		recvs := make([]string, 0, shards-1)
		for i := 1; i < shards; i++ {
			alt, ok := c.stealGP.Pick(func(u string) bool {
				return u != donor && c.routable(u) && c.fresh(u)
			})
			if !ok {
				break
			}
			recvs = append(recvs, alt)
		}
		if len(recvs) == 0 {
			continue // no receiver in reach; nothing to steal onto
		}
		id, err := c.stealJob(ctx, f, donor, nodeJobID, verdict.CheckpointEvery, recvs)
		if err != nil {
			c.ctr.stealFailed.Add(1)
			f.mu.Lock()
			f.lastErr = "steal: " + err.Error()
			f.mu.Unlock()
			return "", err
		}
		return id, nil
	}
	return "", nil
}

// donate asks the donor node to stop the job at its next cycle boundary
// and hand over the exact-prefix checkpoint.
func (c *Coordinator) donate(ctx context.Context, donor, nodeJobID string) ([]byte, error) {
	code, body, err := c.call(ctx, http.MethodPost, donor+"/v1/jobs/"+nodeJobID+"/donate", "", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("donate: node answered %d: %s", code, server.ReadError(body))
	}
	if _, err := checkpoint.Peek(body); err != nil {
		return nil, fmt.Errorf("donate: node sent an invalid checkpoint: %v", err)
	}
	return body, nil
}

// stealJob converts one running node job into a distributed sharded run.
// It is all-or-nothing up to the driver launch: any failure after the
// donation re-imports the checkpoint to the donor, so the job resumes
// single-node and nothing is lost.
func (c *Coordinator) stealJob(ctx context.Context, f *fleetJob, donor, nodeJobID string, checkpointEvery int, recvs []string) (string, error) {
	ckpt, err := c.donate(ctx, donor, nodeJobID)
	if err != nil {
		return "", err
	}
	meta, raw, err := checkpoint.DecodeRaw(ckpt)
	if err != nil {
		return "", c.stealAbort(ctx, f, donor, ckpt, nil, fmt.Errorf("decoding donation: %w", err))
	}
	canonical, err := server.SpecOf(meta, c.domains)
	if err != nil {
		return "", c.stealAbort(ctx, f, donor, ckpt, nil, fmt.Errorf("donation: %w", err))
	}
	scheme, err := simd.ParseSchemeParts(canonical.Scheme)
	if err != nil {
		return "", c.stealAbort(ctx, f, donor, ckpt, nil, err)
	}
	topo, err := topology.ByName(canonical.Topology)
	if err != nil {
		return "", c.stealAbort(ctx, f, donor, ckpt, nil, err)
	}

	// Open the shard sessions: the donor keeps shard 0 (with spooling, so
	// shipped checkpoints land under the job's existing spool entry), each
	// receiver hosts one of the remaining contiguous PE ranges.
	n := len(recvs) + 1
	bases := append([]string{donor}, recvs...)
	shards := make([]steal.Shard, 0, n)
	sessions := make([]*server.ShardClient, 0, n)
	prov := make([]shardProv, 0, n)
	for i, base := range bases {
		lo, hi := i*canonical.P/n, (i+1)*canonical.P/n
		sh, err := server.OpenShard(ctx, c.call, base, ckpt, lo, hi, i == 0)
		if err != nil {
			return "", c.stealAbort(ctx, f, donor, ckpt, sessions, fmt.Errorf("opening shard %d on %s: %w", i, base, err))
		}
		sessions = append(sessions, sh)
		shards = append(shards, sh)
		prov = append(prov, shardProv{Node: base, Session: sh.Session(), Lo: lo, Hi: hi})
	}

	d := &distRun{
		id:     f.id,
		key:    f.key,
		spec:   canonical,
		shards: prov,
		events: server.NewEventLog(),
		done:   make(chan struct{}),
		status: "running",
	}
	runCtx, cancel := context.WithCancelCause(c.loopCtx)
	d.cancel = cancel

	cfg := steal.Config{
		Key:             f.key,
		Meta:            meta,
		Scheme:          scheme,
		Costs:           simd.CM2Costs(),
		Topology:        topo,
		P:               canonical.P,
		StopAtFirstGoal: canonical.StopAtFirstGoal,
		MaxCycles:       canonical.BudgetCycles,
		CheckpointEvery: checkpointEvery,
		OnCheckpoint: func(ctx context.Context, encoded []byte) error {
			d.mu.Lock()
			d.lastCkpt = encoded
			d.mu.Unlock()
			if err := sessions[0].WriteCheckpoint(ctx, encoded); err != nil {
				return fmt.Errorf("shard 0 checkpoint: %w", err)
			}
			d.events.Append(server.JobEvent{Type: server.EventCheckpoint, Shards: n})
			return nil
		},
		Progress: func(pi steal.ProgressInfo) {
			d.events.Append(server.JobEvent{
				Type: server.EventProgress, Cycle: pi.Cycles, Active: pi.Active,
				W: pi.W, LBPhases: pi.LBPhases, Shards: n,
			})
			for i, a := range pi.ShardActive {
				d.events.Append(server.JobEvent{
					Type: server.EventProgress, Cycle: pi.Cycles, Active: a,
					Shard: i + 1, Shards: n,
				})
			}
		},
		// The fleet's event cadence, finer than the engine default so a
		// short distributed run still streams shard-dimension progress.
		ProgressEvery: 250,
	}
	drv, err := steal.NewDriver(cfg, raw, shards)
	if err != nil {
		cancel(nil)
		return "", c.stealAbort(ctx, f, donor, ckpt, sessions, err)
	}

	f.mu.Lock()
	f.dist = d
	f.status = string(server.StatusRunning)
	f.terminal = false
	f.unreachable = false
	f.lastErr = ""
	f.mu.Unlock()
	c.ctr.jobsStolen.Add(1)
	d.events.Append(server.JobEvent{Type: server.EventStatus, Status: server.StatusRunning, Shards: n})

	c.wg.Add(1)
	go c.runDistributed(runCtx, f, d, drv, sessions)
	return f.id, nil
}

// stealAbort unwinds a failed steal setup: close any opened shard
// sessions (keeping the donor's spool entry) and re-import the donation
// checkpoint to the donor so the job resumes single-node.  The teardown
// has its own deadline: ctx may be what failed the setup, and a dead one
// would leave every opened session holding a node slot.  It returns an
// error wrapping cause with the recovery outcome.
func (c *Coordinator) stealAbort(ctx context.Context, f *fleetJob, donor string, ckpt []byte, sessions []*server.ShardClient, cause error) error {
	c.closeSessions(sessions, false)
	nj, doc, err := c.importCheckpoint(ctx, donor, ckpt)
	if err != nil {
		return fmt.Errorf("%w (and re-importing to %s failed: %v; the job recovers from %s's spool at its next restart)", cause, donor, err, donor)
	}
	f.place(donor, nj, doc, true)
	return fmt.Errorf("%w (job re-imported to %s as %s)", cause, donor, nj.ID)
}

// runDistributed drives a stolen job's shards to completion and records
// the merged result on the fleet job, serving it locally from then on.
func (c *Coordinator) runDistributed(ctx context.Context, f *fleetJob, d *distRun, drv *steal.Driver, sessions []*server.ShardClient) {
	defer c.wg.Done()
	defer close(d.done)
	defer d.cancel(nil)
	n := len(sessions)

	res, runErr := drv.Run(ctx)
	c.ctr.stealDonations.Add(int64(res.Donations))
	c.ctr.stealLocal.Add(int64(res.LocalTransfers))
	if runErr == nil {
		d.finish("done", res, nil)
		c.ctr.stealCompleted.Add(1)
		f.observe("done", nil)
		d.events.Append(server.JobEvent{
			Type: server.EventStatus, Status: server.StatusDone, Terminal: true,
			Cycle: res.Stats.Cycles, W: res.Stats.W, LBPhases: res.Stats.LBPhases, Shards: n,
		})
		// The run completed; the donor's spool entry is dead weight.
		c.closeSessions(sessions, true)
		return
	}

	c.ctr.stealFailed.Add(1)
	cancelled := errors.Is(runErr, errStealCancelled)
	// Keep the donor's spool entry: the last shipped checkpoint is the
	// exact prefix of the interrupted schedule.
	c.closeSessions(sessions, cancelled)

	status := "failed"
	switch {
	case cancelled:
		status = "cancelled"
	case ctx.Err() != nil:
		// Coordinator shutdown: the final cancel checkpoint (if
		// checkpointing was on) is already in the donor's spool; the donor
		// resumes the job at its next restart.
	default:
		// A shard died mid-run.  Re-import the last assembled checkpoint to
		// the donor so the job resumes single-node right away.
		d.mu.Lock()
		ckpt := d.lastCkpt
		d.mu.Unlock()
		if ckpt != nil {
			//lint:allow ctxflow the run context is dead; recovery gets its own deadline
			rctx, rcancel := context.WithTimeout(context.Background(), c.cfg.RequestTimeout)
			nj, doc, err := c.importCheckpoint(rctx, sessions[0].Base(), ckpt)
			rcancel()
			if err == nil {
				f.mu.Lock()
				f.dist = nil
				f.mu.Unlock()
				f.place(sessions[0].Base(), nj, doc, true)
				f.mu.Lock()
				f.lastErr = fmt.Sprintf("distributed run aborted (%v); resumed single-node as %s", runErr, nj.ID)
				f.mu.Unlock()
				d.finish("failed", res, runErr)
				return
			}
		}
	}
	d.finish(status, res, runErr)
	f.observe(status, nil)
	f.mu.Lock()
	f.lastErr = runErr.Error()
	f.mu.Unlock()
	d.events.Append(server.JobEvent{
		Type: server.EventStatus, Status: server.Status(status), Error: runErr.Error(),
		Terminal: true, Shards: n,
	})
}

// closeSessions releases every shard session; dropSpool also removes the
// donor's spool entry (shard 0 is the only spooling session).
func (c *Coordinator) closeSessions(sessions []*server.ShardClient, dropSpool bool) {
	//lint:allow ctxflow teardown outlives the run context; it gets its own deadline
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RequestTimeout)
	defer cancel()
	for i, sh := range sessions {
		_ = sh.Close(ctx, dropSpool && i == 0) //lint:allow errdrop an orphaned session only holds memory until the node restarts
	}
}
