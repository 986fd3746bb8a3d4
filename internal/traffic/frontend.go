package traffic

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"simdtree/internal/server"
)

// Config tunes the traffic frontend.  The zero value selects the
// documented defaults.
type Config struct {
	// MaxBatch bounds the specs accepted by one POST /v1/jobs:batch
	// request.  Default 64.
	MaxBatch int
	// MemLimit is the node's resident-memory comfort line in bytes.
	// When positive, a spec that neither sets mem_budget nor fits —
	// predicted peak resident bytes within the limit — is refused with
	// 413 and told to resubmit with a mem_budget, under which the run
	// spills to disk instead of growing without bound.  0 disables the
	// check.
	MemLimit int64
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	return c
}

// backend is what a Frontend admits through: a node's *server.Server, or
// the fleet coordinator routing to many nodes.  Handler serves every
// route the frontend does not own; Metrics is the /metrics document, a
// fresh map the frontend adds its own counters to.
type backend interface {
	CanonicalizeSpec(spec server.JobSpec) (server.JobSpec, error)
	SubmitCanonical(ctx context.Context, canonical server.JobSpec, key, tenant string, cost float64) (server.Job, *server.Refusal)
	Handler() http.Handler
	Metrics() map[string]any
}

// Frontend layers traffic management over a backend: single-flight
// collapsing, batch admission and cost estimation.  Its Handler wraps the
// backend's and owns the routes it adds; everything else passes through
// untouched.
type Frontend struct {
	b   backend
	drr *DRR // the node's queue, for traffic_tenants; nil for a fleet
	cfg Config

	mu      sync.Mutex
	flights map[string]*flight // pending and engine submissions by cache key

	memo admissionMemo // POST /v1/jobs bodies already admitted once

	ctr trafficCounters
}

type trafficCounters struct {
	flights       atomic.Int64 // engine submissions that opened a flight
	collapsed     atomic.Int64 // submissions that joined an existing flight
	batches       atomic.Int64
	batchJobs     atomic.Int64
	memRejections atomic.Int64 // specs refused for predicted memory over Config.MemLimit
	estimates     atomic.Int64
}

// flight is one canonical spec in admission.  admit publishes it before
// SubmitCanonical is called, so an identical submission racing the call
// finds it instead of submitting again, and settled closes once the call
// returned.  Only a flight that settled as an engine run stays in the
// table: h is then set (under Frontend.mu), bytes is written exactly once
// before done closes, and every joiner fans out those bytes.  A flight
// that settled as a cache hit or a refusal leaves the table at once, and
// its waiters admit for themselves.  A cache hit's flight is returned to
// its submitter with bytes written and done closed.
type flight struct {
	key     string
	settled chan struct{}
	h       server.Job
	done    chan struct{}
	bytes   []byte // the terminal document; nil if it failed to render
}

// New builds a Frontend over srv, a *server.Server or anything else that
// submits as one.  drr is the node's queue (its Config.Scheduler), whose
// per-tenant stats /metrics then carries as traffic_tenants; nil (a fleet
// coordinator) leaves them out.
func New(srv backend, drr *DRR, cfg Config) *Frontend {
	return &Frontend{
		b:       srv,
		drr:     drr,
		cfg:     cfg.withDefaults(),
		flights: make(map[string]*flight),
	}
}

// Handler returns the frontend's routing table: the traffic routes plus a
// passthrough to the backend for everything else.  POST /v1/jobs is
// intercepted so single submissions collapse too.
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", f.handleSubmit)
	mux.HandleFunc("POST /v1/jobs:batch", f.handleBatch)
	mux.HandleFunc("POST /v1/estimate", f.handleEstimate)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.Handle("/", f.b.Handler())
	return mux
}

// admissionOf prices and keys a canonical spec.
func admissionOf(canonical server.JobSpec) admission {
	return admission{canonical: canonical, key: server.CacheKey(canonical), est: ForSpec(canonical)}
}

// admit runs one spec through the memory check and the flight table.  On
// success the returned flight is live (or already terminal); collapsed
// reports whether it was shared rather than opened.  On refusal the
// flight is nil.
//
// f.mu is never held across SubmitCanonical, which on the fleet is up to
// two node round trips: a submission finding a pending flight waits for it
// to settle, outside the lock, then looks again.  It joins an engine run
// whose job is not yet finished; a finished one is replaced, since its
// result is now the backend's to answer.
func (f *Frontend) admit(ctx context.Context, a admission, tenant string) (fl *flight, collapsed bool, rf *server.Refusal) {
	key, est := a.key, a.est
	if lim := f.cfg.MemLimit; lim > 0 && a.canonical.MemBudget == 0 && est.PeakResidentBytes > lim {
		f.ctr.memRejections.Add(1)
		return nil, false, &server.Refusal{
			Code: http.StatusRequestEntityTooLarge,
			Message: fmt.Sprintf("predicted peak resident memory %d bytes exceeds the node limit %d; resubmit with mem_budget set (the run then spills cold stack levels to disk with identical results)",
				est.PeakResidentBytes, lim),
		}
	}
	for {
		f.mu.Lock()
		fl = f.flights[key]
		switch {
		case fl == nil || fl.h != nil && fl.h.Terminal():
			fl = &flight{key: key, settled: make(chan struct{})}
			f.flights[key] = fl
			f.mu.Unlock()
			return f.open(ctx, fl, a.canonical, tenant, est.CostUnits())
		case fl.h != nil:
			f.mu.Unlock()
			f.ctr.collapsed.Add(1)
			return fl, true, nil
		}
		f.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, false, &server.Refusal{Code: http.StatusRequestTimeout, Message: "client went away before admission"}
		case <-fl.settled:
		}
	}
}

// open submits the spec of the flight admit just published and settles
// it.  An engine run stays in the table with a resolver waiting it out.  A
// submission the backend answered from its cache is rendered here, once,
// and like a refusal leaves the table at once: it starts no goroutine and
// is never joined, so hits never collapse.
func (f *Frontend) open(ctx context.Context, fl *flight, canonical server.JobSpec, tenant string, cost float64) (*flight, bool, *server.Refusal) {
	h, rf := f.b.SubmitCanonical(ctx, canonical, fl.key, tenant, cost)
	hit := rf == nil && h.CacheHit()
	f.mu.Lock()
	if rf != nil || hit {
		delete(f.flights, fl.key)
	} else {
		fl.h, fl.done = h, make(chan struct{})
	}
	f.mu.Unlock()
	close(fl.settled)
	switch {
	case rf != nil:
		return nil, false, rf
	case hit:
		fl.h, fl.done, fl.bytes = h, resolved, render(h)
		return fl, false, nil
	}
	f.ctr.flights.Add(1)
	go f.resolve(fl)
	return fl, false, nil
}

// resolve waits out the flight's job, renders the terminal response once
// and retires the flight from the table.  The bytes write happens before
// close(done), so every subscriber reading after <-done sees the complete
// body.  The wait needs no context of its own: the job's lifetime is
// bounded by the backend (a node's Shutdown cancels every job), and the
// flight must outlive any one subscriber anyway.
func (f *Frontend) resolve(fl *flight) {
	<-fl.h.Done()
	fl.bytes = render(fl.h)
	f.mu.Lock()
	if f.flights[fl.key] == fl {
		delete(f.flights, fl.key)
	}
	f.mu.Unlock()
	close(fl.done)
}

// resolved is the done channel of every flight answered from the cache:
// closed once, never closed again.
var resolved = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// render is a terminal job's response body, the bytes every subscriber
// of its flight receives; nil when the document failed to render, which
// every subscriber answers 500 renderFailed.
func render(h server.Job) []byte {
	b, err := h.ResponseBytes()
	if err != nil {
		return nil
	}
	return b
}

// renderFailed is the message of the 500 a job whose document does not
// render is answered with.
const renderFailed = "failed to render job"

// collapsedHeader marks a response served by joining an existing flight.
const collapsedHeader = "X-Collapsed"

// handleSubmit implements POST /v1/jobs with single-flight collapsing.
// With ?wait=1 the response is deferred to the flight's terminal body, so
// all collapsed waiters receive byte-identical documents; without it the
// behaviour matches the backend's 202/200 contract, plus the X-Collapsed
// marker.
//
// A body of at most maxMemoBody bytes that was admitted before is
// admitted from the memo: one map lookup in place of the strict decode,
// canonicalisation, cache key and estimate.  Any other body takes the full
// path, and enters the memo once it passed it.
func (f *Frontend) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := server.ReadSpec(w, r, maxMemoBody)
	a, memoised := f.memo.get(body)
	var spec server.JobSpec
	if !memoised {
		var ok bool
		if spec, ok = body.Decode(w); !ok {
			return
		}
	}
	tenant, err := server.TenantFrom(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !memoised {
		canonical, err := f.b.CanonicalizeSpec(spec)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		a = admissionOf(canonical)
		f.memo.put(body, a)
	}
	fl, collapsed, rf := f.admit(r.Context(), a, tenant)
	if rf != nil {
		rf.Apply(w)
		return
	}
	if collapsed {
		w.Header().Set(collapsedHeader, "1")
	}
	if wantWait(r) {
		select {
		case <-r.Context().Done():
			return
		case <-fl.done:
		}
	}
	select {
	case <-fl.done:
		// Terminal and rendered once: a cache hit is never rendered twice.
		if fl.bytes == nil {
			server.WriteError(w, http.StatusInternalServerError, renderFailed)
			return
		}
		server.WriteRaw(w, http.StatusOK, fl.bytes)
	default:
		writeHandle(w, fl.h)
	}
}

// writeHandle renders the job's current document with the server's
// 200-when-terminal / 202-while-pending status contract.
func writeHandle(w http.ResponseWriter, h server.Job) {
	code := http.StatusAccepted
	if h.Terminal() {
		code = http.StatusOK
	}
	b, err := h.ResponseBytes()
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, renderFailed)
		return
	}
	server.WriteRaw(w, code, b)
}

// batchItem is one per-spec verdict, in input order.
type batchItem struct {
	Index      int             `json:"index"`
	Code       int             `json:"code"`
	Error      string          `json:"error,omitempty"`
	ID         string          `json:"id,omitempty"`
	Key        string          `json:"key,omitempty"`
	Status     server.Status   `json:"status,omitempty"`
	CacheHit   bool            `json:"cache_hit,omitempty"`
	Collapsed  bool            `json:"collapsed,omitempty"`
	RetryAfter int             `json:"retry_after,omitempty"`
	Job        json.RawMessage `json:"job,omitempty"`

	fl *flight
}

// batchResponse is the POST /v1/jobs:batch reply: per-item verdicts plus
// the tallies a load generator wants without re-counting.
type batchResponse struct {
	Accepted  int         `json:"accepted"`
	Rejected  int         `json:"rejected"`
	Collapsed int         `json:"collapsed"`
	Items     []batchItem `json:"items"`
}

// handleBatch implements POST /v1/jobs:batch: up to MaxBatch specs
// admitted independently, one verdict each, always answered 200 — item
// codes carry the per-spec outcome, exactly as if each had been POSTed
// alone.
func (f *Frontend) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := server.DecodeBatch(w, r, f.cfg.MaxBatch)
	if !ok {
		return
	}
	tenant, err := server.TenantFrom(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	f.ctr.batches.Add(1)
	f.ctr.batchJobs.Add(int64(len(req.Jobs)))

	resp := batchResponse{Items: make([]batchItem, len(req.Jobs))}
	for i, spec := range req.Jobs {
		it := &resp.Items[i]
		it.Index = i
		canonical, err := f.b.CanonicalizeSpec(spec)
		if err != nil {
			it.Code = http.StatusBadRequest
			it.Error = err.Error()
			resp.Rejected++
			continue
		}
		fl, collapsed, rf := f.admit(r.Context(), admissionOf(canonical), tenant)
		if rf != nil {
			it.Code = rf.Code
			it.Error = rf.Message
			it.RetryAfter = rf.RetryAfter
			resp.Rejected++
			continue
		}
		it.fl = fl
		it.ID = fl.h.ID()
		it.Key = fl.h.Key()
		it.Status = fl.h.Status()
		it.CacheHit = fl.h.CacheHit()
		it.Collapsed = collapsed
		it.Code = http.StatusAccepted
		if fl.h.Terminal() {
			it.Code = http.StatusOK
		}
		resp.Accepted++
		if collapsed {
			resp.Collapsed++
		}
	}
	if req.Wait {
		for i := range resp.Items {
			it := &resp.Items[i]
			if it.fl == nil {
				continue
			}
			select {
			case <-r.Context().Done():
				server.WriteError(w, http.StatusRequestTimeout, "client went away mid-batch")
				return
			case <-it.fl.done:
			}
			it.Status = it.fl.h.Status()
			if it.fl.bytes == nil {
				it.Code, it.Error = http.StatusInternalServerError, renderFailed
				continue
			}
			it.Code = http.StatusOK
			it.Job = json.RawMessage(it.fl.bytes)
		}
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// estimateResponse is the POST /v1/estimate reply.
type estimateResponse struct {
	Domain          string  `json:"domain"`
	Scheme          string  `json:"scheme"`
	P               int     `json:"p"`
	Topology        string  `json:"topology"`
	PredictedW      float64 `json:"predicted_w"`
	PredictedCycles float64 `json:"predicted_cycles"`
	ModelEfficiency float64 `json:"model_efficiency"`
	CostUnits       float64 `json:"cost_units"`
	Exact           bool    `json:"exact"`
	BudgetCapped    bool    `json:"budget_capped,omitempty"`

	// PredictedPeakResidentBytes is the modelled peak of resident stack
	// memory for an unbounded run — the number to weigh against a node's
	// -mem-budget when deciding whether to set mem_budget on the spec.
	PredictedPeakResidentBytes int64 `json:"predicted_peak_resident_bytes"`
}

// handleEstimate implements POST /v1/estimate: price a spec with the
// paper's efficiency model without running anything.  The same estimate
// weights the DRR dequeue at admission.
func (f *Frontend) handleEstimate(w http.ResponseWriter, r *http.Request) {
	spec, ok := server.DecodeSpec(w, r)
	if !ok {
		return
	}
	canonical, err := f.b.CanonicalizeSpec(spec)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	f.ctr.estimates.Add(1)
	est := ForSpec(canonical)
	server.WriteJSON(w, http.StatusOK, estimateResponse{
		Domain:          canonical.Domain,
		Scheme:          canonical.Scheme,
		P:               canonical.P,
		Topology:        canonical.Topology,
		PredictedW:      est.W,
		PredictedCycles: est.Cycles,
		ModelEfficiency: est.Efficiency,
		CostUnits:       est.CostUnits(),
		Exact:           est.Exact,
		BudgetCapped:    est.BudgetCapped,

		PredictedPeakResidentBytes: est.PeakResidentBytes,
	})
}

// handleMetrics implements GET /metrics: the backend's Metrics document
// plus the traffic layer's counters, and the per-tenant DRR stats when the
// frontend holds the scheduler.
func (f *Frontend) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	doc := f.b.Metrics()
	doc["traffic_flights_total"] = f.ctr.flights.Load()
	doc["traffic_collapsed_total"] = f.ctr.collapsed.Load()
	doc["traffic_batches_total"] = f.ctr.batches.Load()
	doc["traffic_batch_jobs_total"] = f.ctr.batchJobs.Load()
	doc["traffic_mem_rejections_total"] = f.ctr.memRejections.Load()
	doc["traffic_estimates_total"] = f.ctr.estimates.Load()
	f.mu.Lock()
	doc["traffic_flights_open"] = len(f.flights)
	f.mu.Unlock()
	if f.drr != nil {
		doc["traffic_tenants"] = f.drr.Stats()
	}
	server.WriteJSON(w, http.StatusOK, doc)
}

// wantWait reports whether the request asked for a synchronous terminal
// response.
func wantWait(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "1", "true", "yes":
		return true
	}
	return false
}
