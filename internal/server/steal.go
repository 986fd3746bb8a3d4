package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"simdtree/internal/checkpoint"
	"simdtree/internal/steal"
)

// Distributed work stealing, node side.  A fleet coordinator turns one
// running job into a sharded run in three moves against this API:
//
//  1. GET /v1/jobs/{id}/stealable asks whether the job can be donated.
//  2. POST /v1/jobs/{id}/donate stops the run at a cycle boundary (the
//     same cancellation path a shutdown uses, so the exact-prefix
//     checkpoint lands in the spool) and answers with those checkpoint
//     bytes — the donation.
//  3. POST /v1/steal/sessions (here and on peer nodes) opens shard
//     sessions over PE ranges of that checkpoint; the coordinator then
//     drives them in lock-step via the per-session calls (shard.go), shipping
//     steal.Frames between nodes at load-balancing phases, and ships the
//     assembled cluster-wide checkpoints back to the donor's spool so the
//     distributed job survives restarts.
//
// Sessions hold a full-size machine (only the shard's PE range occupied)
// and are driven strictly one call at a time; a per-session mutex
// serialises overlapping requests.

// maxStealSessions bounds concurrently open shard sessions; a session's
// machine holds up to a whole job's stacks.
const maxStealSessions = 16

// stealSession is one hosted shard of a distributed run.
type stealSession struct {
	key   string
	host  steal.Host
	spool bool // coordinator checkpoints spool under key

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

func (r *stealRegistry) remove(id string) (*stealSession, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sess, ok := r.byID[id]
	delete(r.byID, id)
	return sess, ok
}

// stealableDomain reports whether the domain can host shard sessions.
func stealableDomain(domain string) bool {
	_, ok := builtins[domain]
	return ok
}

// StealableResponse is the GET /v1/jobs/{id}/stealable verdict.
type StealableResponse struct {
	Stealable       bool   `json:"stealable"`
	Reason          string `json:"reason,omitempty"`
	Status          Status `json:"status"`
	P               int    `json:"p,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
}

// handleStealable implements GET /v1/jobs/{id}/stealable: can this job be
// donated to the fleet right now?
func (s *Server) handleStealable(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job id")
		return
	}
	v := j.view()
	resp := StealableResponse{Status: v.Status, P: v.Spec.P, CheckpointEvery: s.cfg.CheckpointEvery}
	switch {
	case v.Status != StatusRunning:
		resp.Reason = fmt.Sprintf("job is %s, not running", v.Status)
	case s.spool == nil:
		resp.Reason = "server runs without a checkpoint spool"
	case s.cfg.CheckpointEvery <= 0:
		resp.Reason = "periodic checkpointing is disabled"
	case v.Spec.P < 2:
		resp.Reason = "single-PE jobs cannot be sharded"
	case !stealableDomain(v.Spec.Domain):
		resp.Reason = fmt.Sprintf("domain %q has no shard host", v.Spec.Domain)
	default:
		resp.Stealable = true
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleDonate implements POST /v1/jobs/{id}/donate: stop the running job
// at its next cycle boundary and answer with the exact-prefix checkpoint —
// the donation the coordinator shards across the fleet.  The spool keeps
// the file (cleanSpool exempts donated jobs), so the node can still
// recover the job if the distributed run dies.
func (s *Server) handleDonate(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job id")
		return
	}
	if s.spool == nil {
		WriteError(w, http.StatusConflict, "server runs without a checkpoint spool")
		return
	}
	v := j.view()
	if v.Status != StatusRunning {
		WriteError(w, http.StatusConflict, fmt.Sprintf("job is %s; only a running job can be donated", v.Status))
		return
	}
	if !stealableDomain(v.Spec.Domain) {
		WriteError(w, http.StatusConflict, fmt.Sprintf("domain %q has no shard host", v.Spec.Domain))
		return
	}
	j.requestCancel(errDonated)
	select {
	case <-j.done:
	case <-r.Context().Done():
		WriteError(w, http.StatusGatewayTimeout, "job did not reach a cycle boundary before the request deadline")
		return
	}
	if st := j.view().Status; st != StatusDonated {
		// The run crossed the finish line (or failed) before the
		// cancellation landed; there is nothing left to steal.
		WriteError(w, http.StatusConflict, fmt.Sprintf("job finished as %s before the donation landed", st))
		return
	}
	b, err := s.spool.read(j.key)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, fmt.Sprintf("donated job left no spooled checkpoint: %v", err))
		return
	}
	s.writeCheckpoint(w, j.key, b)
}

// handleStealOpen implements POST /v1/steal/sessions: body is a donation
// checkpoint, ?lo= and ?hi= the shard's PE range, ?spool=1 asks the node
// to persist coordinator checkpoints under the job's spool entry.
func (s *Server) handleStealOpen(w http.ResponseWriter, r *http.Request) {
	lo, err1 := strconv.Atoi(r.URL.Query().Get("lo"))
	hi, err2 := strconv.Atoi(r.URL.Query().Get("hi"))
	if err1 != nil || err2 != nil {
		WriteError(w, http.StatusBadRequest, "lo and hi query parameters must be integers")
		return
	}
	wantSpool := r.URL.Query().Get("spool") == "1"
	if wantSpool && s.spool == nil {
		WriteError(w, http.StatusConflict, "server runs without a checkpoint spool")
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
	canonical, err := SpecOf(meta, s.domains)
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
	sess := &stealSession{key: CacheKey(canonical), host: host, spool: wantSpool}
	id, err := s.steal.add(sess)
	if err != nil {
		WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.ctr.stealSessionsOpened.Add(1)
	allEmpty, anyDonor := host.Status()
	WriteJSON(w, http.StatusOK, openResponse{id, lo, hi, statusResponse{allEmpty, anyDonor}})
}

// handleStealCheckpoint implements PUT /v1/steal/sessions/{sid}/checkpoint:
// the coordinator ships an assembled cluster-wide checkpoint, persisted
// under the donated job's spool entry so a restart recovers the sharded
// job (the spool rescan resumes it as an ordinary single-node run).
func (s *Server) handleStealCheckpoint(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.steal.get(r.PathValue("sid"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown shard session")
		return
	}
	if !sess.spool || s.spool == nil {
		WriteError(w, http.StatusConflict, "session was not opened with spooling")
		return
	}
	body, _, err := checkpoint.ReadFrame(http.MaxBytesReader(w, r.Body, checkpoint.MaxFrameSize))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad checkpoint frame: %v", err))
		return
	}
	if err := s.spool.write(sess.key, body); err != nil {
		WriteError(w, http.StatusInternalServerError, fmt.Sprintf("spooling checkpoint: %v", err))
		return
	}
	s.ctr.checkpointsWritten.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleStealClose implements DELETE /v1/steal/sessions/{sid}; with
// ?drop_spool=1 the donated job's spool entry goes too (the distributed
// run completed and its result is recorded elsewhere).
func (s *Server) handleStealClose(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.steal.remove(r.PathValue("sid"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown shard session")
		return
	}
	if r.URL.Query().Get("drop_spool") == "1" && s.spool != nil {
		s.spool.remove(sess.key)
	}
	w.WriteHeader(http.StatusNoContent)
}
