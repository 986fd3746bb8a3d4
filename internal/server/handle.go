package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"
)

// Job is a submitted job as the frontend (frontend.go) observes it: a
// node's *job, or a coordinator's routed fleet job.  ResponseBytes
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
// instantly from cache).  A node admits without waiting on anything, so
// the caller's context goes unused.
func (s *Server) SubmitCanonical(_ context.Context, canonical JobSpec, key, tenant string, cost float64) (Job, *Refusal) {
	if cost <= 0 || math.IsNaN(cost) || math.IsInf(cost, 0) {
		cost = 1
	}
	now := time.Now()
	if j, ok := s.hitJob(canonical, key, tenant, now); ok {
		return j, nil
	}
	j := s.newJob(canonical, key, tenant, nil, now)
	j.run.cost = cost
	if rf := s.enqueue(j, true); rf != nil {
		return nil, rf
	}
	return j, nil
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
