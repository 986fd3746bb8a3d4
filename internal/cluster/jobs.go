package cluster

import (
	"encoding/json"
	"sync"
)

// fleetJob is the coordinator's record of one routed job: where it
// lives, what key it hashes to, and the warm checkpoint copy that makes
// failover possible when the owning node dies without warning.
type fleetJob struct {
	id   string // fleet-level id ("f1", ...)
	key  string // canonical cache key; the routing hash
	spec []byte // canonical spec JSON, for checkpoint-less re-dispatch

	mu          sync.Mutex
	node        string // owning node URL
	nodeJobID   string // job id on the owning node
	status      string // last observed node-side status
	terminal    bool
	overflow    bool     // was GP-routed away from its ring home
	failovers   int      // times re-dispatched after a node death
	resumed     bool     // last dispatch resumed from a shipped checkpoint
	unreachable bool     // last proxy attempt failed
	lastErr     string   // last coordination error (e.g. failed failover)
	ckpt        []byte   // latest pulled checkpoint, nil before the first pull
	dist        *distRun // non-nil once the job was stolen into a sharded run
}

// place records a (re)dispatch to a node.
func (f *fleetJob) place(node, nodeJobID, status string, resumed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.node = node
	f.nodeJobID = nodeJobID
	f.status = status
	f.terminal = terminalStatus(status)
	f.resumed = resumed
	f.unreachable = false
	f.lastErr = ""
}

// observe records a status seen while proxying or syncing.
func (f *fleetJob) observe(status string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.status = status
	f.terminal = terminalStatus(status)
	f.unreachable = false
	if f.terminal {
		f.ckpt = nil // the result exists; the warm copy is dead weight
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
		Distributed: f.dist != nil,
		Overflow:    f.overflow,
		Failovers:   f.failovers,
		Resumed:     f.resumed,
		Unreachable: f.unreachable,
		Error:       f.lastErr,
		Job:         raw,
	}
}

// terminalStatus is the node-side terminal set (server.Status) minus
// "donated": a donated job is terminal on its node but mid-handoff to a
// distributed run here, so the fleet record must stay live — collapsible,
// synced, failed over — until the coordinator-driven run ends it.
func terminalStatus(s string) bool {
	switch s {
	case "done", "cancelled", "timeout", "exhausted", "failed":
		return true
	}
	return false
}

// fleetStore maps fleet job ids to records, in submission order.
type fleetStore struct {
	mu    sync.Mutex
	byID  map[string]*fleetJob
	order []string
}

func newFleetStore() *fleetStore {
	return &fleetStore{byID: make(map[string]*fleetJob)}
}

func (s *fleetStore) add(f *fleetJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byID[f.id] = f
	s.order = append(s.order, f.id)
}

func (s *fleetStore) get(id string) (*fleetJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.byID[id]
	return f, ok
}

// all returns the jobs in submission order.
func (s *fleetStore) all() []*fleetJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*fleetJob, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.byID[id])
	}
	return out
}
