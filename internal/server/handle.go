package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"
)

// Job is a submitted job as the frontend (frontend.go) observes it: a
// node's *JobHandle, or a coordinator's routed fleet job.  ResponseBytes
// is the document the API answers with for it, so every subscriber of a
// collapsed submission fans out the one rendered response of the one real
// run.
type Job interface {
	ID() string
	Key() string
	Status() Status
	Terminal() bool
	CacheHit() bool
	// Done is closed once the job is observed terminal.
	Done() <-chan struct{}
	ResponseBytes() ([]byte, error)
}

// JobHandle is a node's Job: the programmatic counterpart of the HTTP job
// API, submitted and observed without a network hop.
type JobHandle struct {
	j *job
}

// ID returns the job id ("j1", ...).
func (h *JobHandle) ID() string { return h.j.id }

// Key returns the canonical spec cache key, the single-flight collapse
// key.
func (h *JobHandle) Key() string { return h.j.key }

// CacheHit reports whether the job was answered from the result cache.
func (h *JobHandle) CacheHit() bool {
	h.j.mu.Lock()
	defer h.j.mu.Unlock()
	return h.j.cacheHit
}

// Done returns a channel closed when the job reaches a terminal status.
func (h *JobHandle) Done() <-chan struct{} { return h.j.done() }

// Status returns the job's current lifecycle state.
func (h *JobHandle) Status() Status {
	h.j.mu.Lock()
	defer h.j.mu.Unlock()
	return h.j.status
}

// Terminal reports whether the job is finished.
func (h *JobHandle) Terminal() bool { return h.j.Terminal() }

// ResponseBytes renders the job document exactly as the HTTP layer
// writes it (indented JSON plus trailing newline), so callers can fan the
// same bytes out to any number of subscribers.  A cache hit's document is
// appended from its cached result's template (hitdoc.go).
func (h *JobHandle) ResponseBytes() ([]byte, error) {
	if h.j.hit != nil {
		return h.j.hit.render(h.j.view())
	}
	return marshalDoc(renderJob(h.j.view()))
}

// EventsSince returns the buffered job events with Seq > after, plus a
// channel closed when the next event is appended, nil once the job is
// terminal.  See EventLog.Since.
func (h *JobHandle) EventsSince(after int64) ([]JobEvent, <-chan struct{}) {
	return h.j.eventsSince(after)
}

// JobByID looks up an addressable job.
func (s *Server) JobByID(id string) (*JobHandle, bool) {
	j, ok := s.store.get(id)
	if !ok {
		return nil, false
	}
	return &JobHandle{j: j}, true
}

// CanonicalizeSpec validates and canonicalizes spec against this server's
// domain set (built-ins plus injected runners).
func (s *Server) CanonicalizeSpec(spec JobSpec) (JobSpec, error) {
	return Canonicalize(spec, s.domains)
}

// Refusal describes a rejected submission: the HTTP status to answer
// with, the message, and the Retry-After hint in seconds (0: none).
type Refusal struct {
	Code       int
	Message    string
	RetryAfter int
}

// SubmitCanonical is the node's submission path, which its frontend's
// POST /v1/jobs and :batch admit through: consult the result cache, otherwise admit to the
// queue under the given tenant, its quota (Config.TenantQuota) and
// the predicted cost.  The spec must already be canonical and key its
// cache key.  A nil Refusal means the job was accepted (possibly finished
// instantly from cache) as a *JobHandle.  A node admits without waiting on
// anything, so the caller's context goes unused.
func (s *Server) SubmitCanonical(_ context.Context, canonical JobSpec, key, tenant string, cost float64) (Job, *Refusal) {
	if cost <= 0 || math.IsNaN(cost) || math.IsInf(cost, 0) {
		cost = 1
	}
	now := time.Now()
	if j, ok := s.hitJob(canonical, key, tenant, now); ok {
		return &JobHandle{j: j}, nil
	}
	j := s.newJob(canonical, key, tenant, nil, now)
	j.run.cost = cost
	if rf := s.enqueue(j, true); rf != nil {
		return nil, rf
	}
	return &JobHandle{j: j}, nil
}

// retryAfterSeconds derives the 429 Retry-After hint from the current
// backlog and the recent mean job duration: the time the backlog needs to
// drain through the pool, clamped to [1s, 10min].  Before any job has
// completed the mean defaults to one second.
func (s *Server) retryAfterSeconds() int {
	mean := time.Second
	if n := s.ctr.runDurCount.Load(); n > 0 {
		mean = time.Duration(s.ctr.runDurSumNS.Load() / n)
	}
	depth := s.queue.depth()
	workers := s.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	est := time.Duration(depth/workers+1) * mean
	secs := int(math.Ceil(est.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return secs
}

// TenantHeader is the HTTP header naming the submitting tenant; absent or
// empty means DefaultTenant.
const TenantHeader = "X-Tenant"

// DefaultTenant is the tenant unlabelled traffic is accounted under.
const DefaultTenant = "default"

// maxTenantLen bounds the accepted tenant label.
const maxTenantLen = 64

// tenantFrom extracts and validates the tenant label of a request.
func tenantFrom(r *http.Request) (string, error) {
	t := r.Header.Get(TenantHeader)
	if t == "" {
		return DefaultTenant, nil
	}
	if len(t) > maxTenantLen {
		return "", fmt.Errorf("%s exceeds %d bytes", TenantHeader, maxTenantLen)
	}
	for _, c := range t {
		if c < 0x21 || c > 0x7e {
			return "", fmt.Errorf("%s carries a non-printable or space character", TenantHeader)
		}
	}
	return t, nil
}
