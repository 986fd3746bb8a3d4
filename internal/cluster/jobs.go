package cluster

import (
	"encoding/json"
	"sync"

	"simdtree/internal/server"
)

// fleetJob is the coordinator's record of one routed job: where it
// lives, what key it hashes to, and the warm checkpoint copy that makes
// failover possible when the owning node dies without warning.  It is the
// server.Job the coordinator's frontend admits and collapses.
type fleetJob struct {
	id     string // fleet-level id ("f1", ...), written as the coordinator's store adds the job
	key    string // canonical cache key; the routing hash
	spec   []byte // canonical spec JSON, for checkpoint-less re-dispatch
	tenant string // the submitting tenant, which a re-dispatch keeps

	mu          sync.Mutex
	node        string // owning node URL
	nodeJobID   string // job id on the owning node
	status      string // last observed node-side status
	terminal    bool
	cacheHit    bool            // the last placement was answered from the node's cache
	doc         json.RawMessage // the last node job document the coordinator was handed
	done        chan struct{}   // closed once terminal is first observed
	overflow    bool            // was GP-routed away from its ring home
	failovers   int             // times re-dispatched after a node death
	resumed     bool            // last dispatch resumed from a shipped checkpoint
	unreachable bool            // last proxy attempt failed
	lastErr     string          // last coordination error (e.g. failed failover)
	ckpt        []byte          // latest pulled checkpoint, nil before the first pull
	stolen      bool            // the steal controller split it over several nodes
}

// place records a (re)dispatch to a node and the job document it answered.
func (f *fleetJob) place(node string, nj nodeJob, doc json.RawMessage, resumed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.node = node
	f.nodeJobID = nj.ID
	f.cacheHit = nj.CacheHit
	f.resumed = resumed
	f.unreachable = false
	f.lastErr = ""
	f.setLocked(string(nj.Status), doc)
}

// observe records a status, and the document it came in when there is
// one, seen while proxying, syncing or stealing.
func (f *fleetJob) observe(status string, doc json.RawMessage) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.unreachable = false
	f.setLocked(status, doc)
}

// setLocked records a node-side status and, when given, its document; the
// first terminal status closes done and drops the warm checkpoint copy.
func (f *fleetJob) setLocked(status string, doc json.RawMessage) {
	f.status = status
	f.terminal = server.Status(status).Terminal()
	if doc != nil {
		f.doc = doc
	}
	if !f.terminal {
		return
	}
	f.ckpt = nil
	select {
	case <-f.done:
	default:
		close(f.done)
	}
}

// snapshot returns the job's wire form around the node's job document
// raw (nil when only the routing facts are wanted).
func (f *fleetJob) snapshot(raw json.RawMessage) fleetJobResponse {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fleetJobResponse{
		ID:          f.id,
		CacheKey:    f.key,
		Node:        f.node,
		NodeJobID:   f.nodeJobID,
		Status:      f.status,
		Overflow:    f.overflow,
		Failovers:   f.failovers,
		Resumed:     f.resumed,
		Unreachable: f.unreachable,
		Error:       f.lastErr,
		Job:         raw,
	}
}

// The server.Job methods.  A fleet job is done once the coordinator
// observes it terminal — at a sync or a GET — and its response is the
// fleet envelope around the last node document it was handed.

func (f *fleetJob) ID() string  { return f.id }
func (f *fleetJob) Key() string { return f.key }

func (f *fleetJob) Status() server.Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return server.Status(f.status)
}

func (f *fleetJob) Terminal() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.terminal
}

func (f *fleetJob) CacheHit() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cacheHit
}

func (f *fleetJob) Done() <-chan struct{} { return f.done }

func (f *fleetJob) ResponseBytes() ([]byte, error) {
	f.mu.Lock()
	doc := f.doc
	f.mu.Unlock()
	return server.MarshalDoc(f.snapshot(doc))
}
