package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"simdtree/internal/checkpoint"
	"simdtree/internal/metrics"
	"simdtree/internal/simd"
	"simdtree/internal/steal"
	"simdtree/internal/trace"
)

// Distributed work stealing, node side.  A fleet coordinator turns one
// running job into a sharded run in two moves against the job's node:
//
//  1. GET /v1/jobs/{id}/stealable asks whether the job can be split.
//  2. POST /v1/jobs/{id}/steal names the nodes to split it over.  The
//     job's worker stops its single-node run at a cycle boundary (its
//     exact-prefix checkpoint lands in the spool), keeps shard 0 in
//     process, opens the others as sessions on the peers
//     (POST /v1/steal/sessions, then the per-session calls of shard.go),
//     and drives them all in lock-step with steal.Driver.
//
// The driven run is the job's own: its result, cache entry, trace, events
// and spooled checkpoints are the job's, exactly as a single-node run's
// would be.  A run that loses a peer resumes single-node from its last
// assembled checkpoint, under the same job.
//
// Sessions hold a full-size machine (only the shard's PE range occupied)
// and are driven strictly one call at a time; a per-session mutex
// serialises overlapping requests.

// maxStealSessions bounds concurrently open shard sessions; a session's
// machine holds up to a whole job's stacks.
const maxStealSessions = 16

// stealSession is one hosted shard of a distributed run.
type stealSession struct {
	host steal.Host

	mu sync.Mutex // serialises host operations
}

// stealRegistry tracks open shard sessions.
type stealRegistry struct {
	mu   sync.Mutex
	byID map[string]*stealSession
	next int64
}

func newStealRegistry() *stealRegistry {
	return &stealRegistry{byID: make(map[string]*stealSession)}
}

func (r *stealRegistry) active() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}

// add registers the session under a fresh id; it fails when the registry
// is full.
func (r *stealRegistry) add(sess *stealSession) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.byID) >= maxStealSessions {
		return "", fmt.Errorf("server: %d shard sessions already open", len(r.byID))
	}
	r.next++
	id := "s" + strconv.FormatInt(r.next, 10)
	r.byID[id] = sess
	return id, nil
}

func (r *stealRegistry) get(id string) (*stealSession, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sess, ok := r.byID[id]
	return sess, ok
}

func (r *stealRegistry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.byID[id]
	delete(r.byID, id)
	return ok
}

// StealableResponse is the GET /v1/jobs/{id}/stealable verdict.
type StealableResponse struct {
	Stealable bool   `json:"stealable"`
	Reason    string `json:"reason,omitempty"`
	Status    Status `json:"status"`
	P         int    `json:"p,omitempty"`
}

// StealRequest is the POST /v1/jobs/{id}/steal body: the base URLs of the
// nodes the job's shards run on, in shard order.  Shard 0 is the job's own
// node, named as the caller reaches it; the node hosts it in process and
// records the name only in the job document.
type StealRequest struct {
	Shards []string `json:"shards"`
}

// ShardInfo is one shard of a distributed run in its job document: the
// node it runs on, its session there (none for shard 0, which the job's
// worker hosts itself) and its PE range.
type ShardInfo struct {
	Node    string `json:"node"`
	Session string `json:"session,omitempty"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
}

// stealOrder is a steal handed to a job's worker: the shard nodes, and
// where the worker answers the request — nil once the driver runs.
type stealOrder struct {
	shards  []string
	started chan *Refusal // buffered; the worker sends exactly once
}

// stealRefusal says why j cannot be split into n shards now, "" when it
// can.
func (s *Server) stealRefusal(j *job, n int) string {
	j.mu.Lock()
	r := j.run
	yieldable, status, spec := r != nil && r.yield != nil && r.steal == nil, j.status, j.spec
	j.mu.Unlock()
	_, hosted := builtins[spec.Domain]
	switch {
	case !yieldable:
		return fmt.Sprintf("job is %s, not in a single-node run", status)
	case s.spool == nil:
		return "server runs without a checkpoint spool"
	case spec.P < n:
		return fmt.Sprintf("a %d-PE job cannot be split into %d shards", spec.P, n)
	case !hosted:
		return fmt.Sprintf("domain %q has no shard host", spec.Domain)
	}
	return ""
}

// handleStealable implements GET /v1/jobs/{id}/stealable: can this job be
// split across the fleet right now?
func (s *Server) handleStealable(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job id")
		return
	}
	v := j.view()
	resp := StealableResponse{Reason: s.stealRefusal(j, 2), Status: v.Status, P: v.Spec.P}
	resp.Stealable = resp.Reason == ""
	WriteJSON(w, http.StatusOK, resp)
}

// handleSteal implements POST /v1/jobs/{id}/steal: yield the job's
// single-node run to a distributed one over the named shards, and answer
// with the job document once the driver runs — or with why it does not: a
// 409 when the job cannot be split or its run ended first, a 502 when a
// peer could not take its shard (the job then runs on single-node).
func (s *Server) handleSteal(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job id")
		return
	}
	var req StealRequest
	if !decodeStrict(w, r, 1<<20, "steal request", &req) {
		return
	}
	if len(req.Shards) < 2 {
		WriteError(w, http.StatusBadRequest, "a steal needs two shards or more: this node's and a peer's")
		return
	}
	o := &stealOrder{shards: req.Shards, started: make(chan *Refusal, 1)}
	reason := s.stealRefusal(j, len(req.Shards))
	if reason == "" {
		reason = j.offerSteal(o)
	}
	if reason != "" {
		WriteError(w, http.StatusConflict, reason)
		return
	}
	select {
	case rf := <-o.started:
		if rf != nil {
			rf.Apply(w)
			return
		}
		WriteJSON(w, http.StatusOK, renderJob(j.view()))
	case <-r.Context().Done():
		WriteError(w, http.StatusGatewayTimeout, "the distributed run did not start before the request deadline")
	}
}

// run executes j to its end.  Its single-node run can yield at a cycle
// boundary to a distributed one (offerSteal); if that run loses a peer,
// the job resumes single-node from its last assembled checkpoint, and may
// be stolen again.  It returns the result and the trace that holds it.
func (s *Server) run(ctx context.Context, j *job, opts simd.Options, tr *trace.Trace) (metrics.Stats, *trace.Trace, error) {
	for {
		yctx, yield := context.WithCancelCause(ctx)
		j.setYield(yield)
		stats, err := s.execute(yctx, j, opts)
		o := j.setYield(nil)
		yield(nil)
		if o == nil {
			return stats, tr, err
		}
		if !errors.Is(err, errYield) || ctx.Err() != nil {
			o.started <- &Refusal{Code: http.StatusConflict, Message: "the run ended before the steal landed"}
			if errors.Is(err, errYield) {
				err = context.Cause(ctx)
			}
			return stats, tr, err
		}
		res, resume, err := s.distribute(ctx, j, opts, o)
		if resume == nil {
			return res.Stats, res.Trace, err
		}
		r := j.run
		r.resume = resume
		r.events.Append(JobEvent{Type: EventStatus, Status: StatusRunning, Error: "distributed run aborted, resuming single-node: " + err.Error()})
	}
}

// distribute drives the rest of j's run over the shards o names: shard 0
// in process from the checkpoint the yielded run just spooled, the others
// as sessions on the peers.  It answers o once the driver runs or cannot.
// A run that reaches the job's end returns its result; one that loses a
// peer, at setup or mid-run, returns instead the checkpoint to resume
// single-node from: the last one it assembled.
func (s *Server) distribute(ctx context.Context, j *job, opts simd.Options, o *stealOrder) (res steal.Result, resume []byte, err error) {
	ckpt, err := s.spool.read(j.key)
	var meta checkpoint.Meta
	var raw *checkpoint.RawSnapshot
	if err == nil {
		meta, raw, err = checkpoint.DecodeRaw(ckpt)
	}
	if err != nil {
		// Nothing to resume from either: the job fails with its spool.
		err = fmt.Errorf("the yielded run's spooled checkpoint: %w", err)
		o.started <- &Refusal{Code: http.StatusInternalServerError, Message: err.Error()}
		return res, nil, err
	}

	var peers []*ShardClient
	defer func() { closePeers(peers) }()
	abort := func(err error) (steal.Result, []byte, error) {
		s.ctr.stealFailed.Add(1)
		o.started <- &Refusal{Code: http.StatusBadGateway, Message: err.Error()}
		return res, ckpt, err
	}
	scheme, err := simd.ParseSchemeParts(j.spec.Scheme)
	if err != nil {
		return abort(err)
	}
	n, p := len(o.shards), j.spec.P
	host, err := builtins[j.spec.Domain].host(j.spec, opts, 0, p/n, raw)
	if err != nil {
		return abort(fmt.Errorf("building shard 0: %w", err))
	}
	shards := []steal.Shard{steal.LocalShard{H: host}}
	info := []ShardInfo{{Node: o.shards[0], Lo: 0, Hi: p / n}}
	for i := 1; i < n; i++ {
		lo, hi := i*p/n, (i+1)*p/n
		c, err := OpenShard(ctx, s.peers, o.shards[i], ckpt, lo, hi)
		if err != nil {
			return abort(fmt.Errorf("opening shard %d on %s: %w", i, o.shards[i], err))
		}
		peers = append(peers, c)
		shards = append(shards, c)
		info = append(info, ShardInfo{Node: o.shards[i], Session: c.Session(), Lo: lo, Hi: hi})
	}

	r := j.run
	last := ckpt
	cfg := steal.Config{
		Key:             j.key,
		Meta:            meta,
		Scheme:          scheme,
		Costs:           opts.Costs,
		Topology:        opts.Topology,
		P:               p,
		StopAtFirstGoal: opts.StopAtFirstGoal,
		MaxCycles:       opts.MaxCycles,
		CheckpointEvery: s.cfg.CheckpointEvery,
		OnCheckpoint: func(_ context.Context, b []byte) error {
			if err := s.spool.write(j.key, b); err != nil {
				return err
			}
			s.ctr.checkpointsWritten.Add(1)
			last = b
			r.events.Append(JobEvent{Type: EventCheckpoint, Shards: n})
			return nil
		},
	}
	if s.cfg.ProgressEvery > 0 {
		cfg.ProgressEvery = s.cfg.ProgressEvery
		cfg.Progress = r.progress
	}
	drv, err := steal.NewDriver(cfg, raw, shards)
	if err != nil {
		return abort(err)
	}
	dist := &distRun{shards: info}
	j.setDist(dist)
	r.events.Append(JobEvent{Type: EventStatus, Status: StatusRunning, Shards: n})
	o.started <- nil

	res, err = drv.Run(ctx)
	s.ctr.stealDonations.Add(int64(res.Donations))
	s.ctr.stealLocal.Add(int64(res.LocalTransfers))
	switch {
	case err == nil:
		s.ctr.stealCompleted.Add(1)
	case ctx.Err() != nil:
		// The job's own end — a cancel, its deadline, shutdown.  The
		// schedule returns its cause, joined to the error of a failed
		// stop-time checkpoint; a shard failure that raced it reports the
		// cause alone.
		if !errors.Is(err, context.Cause(ctx)) {
			err = context.Cause(ctx)
		}
	case !errors.Is(err, simd.ErrBudgetExceeded):
		s.ctr.stealFailed.Add(1)
		j.setDist(nil)
		return res, last, err
	}
	j.mu.Lock()
	dist.donations, dist.localTransfers = res.Donations, res.LocalTransfers
	j.mu.Unlock()
	return res, nil, err
}

// closePeers releases a distributed run's sessions on a deadline of their
// own: the job's context may be what ended the run, and a dead one would
// leave every session holding a slot on its node until the node restarts.
func closePeers(peers []*ShardClient) {
	//lint:allow ctxflow teardown outlives the job's context; it gets its own deadline
	ctx, cancel := context.WithTimeout(context.Background(), peerTimeout)
	defer cancel()
	for _, c := range peers {
		_ = c.Close(ctx) //lint:allow errdrop an orphaned session only holds memory until its node restarts
	}
}

// handleStealOpen implements POST /v1/steal/sessions: body is the
// checkpoint a stolen job yielded, ?lo= and ?hi= the shard's PE range.
func (s *Server) handleStealOpen(w http.ResponseWriter, r *http.Request) {
	lo, err1 := strconv.Atoi(r.URL.Query().Get("lo"))
	hi, err2 := strconv.Atoi(r.URL.Query().Get("hi"))
	if err1 != nil || err2 != nil {
		WriteError(w, http.StatusBadRequest, "lo and hi query parameters must be integers")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, checkpoint.MaxFrameSize))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("reading checkpoint body: %v", err))
		return
	}
	meta, raw, err := checkpoint.DecodeRaw(body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad donation checkpoint: %v", err))
		return
	}
	canonical, err := specOf(meta, s.domains)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if lo < 0 || hi > canonical.P || lo >= hi {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("shard range [%d, %d) invalid for P=%d", lo, hi, canonical.P))
		return
	}
	opts, err := s.buildOptions(canonical)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	b, ok := builtins[canonical.Domain]
	if !ok {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("domain %q has no shard host", canonical.Domain))
		return
	}
	host, err := b.host(canonical, opts, lo, hi, raw)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("building shard host: %v", err))
		return
	}
	id, err := s.steal.add(&stealSession{host: host})
	if err != nil {
		WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.ctr.stealSessionsOpened.Add(1)
	allEmpty, anyDonor := host.Status()
	WriteJSON(w, http.StatusOK, openResponse{id, lo, hi, statusResponse{allEmpty, anyDonor}})
}

// handleStealClose implements DELETE /v1/steal/sessions/{sid}.
func (s *Server) handleStealClose(w http.ResponseWriter, r *http.Request) {
	if !s.steal.remove(r.PathValue("sid")) {
		WriteError(w, http.StatusNotFound, "unknown shard session")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
