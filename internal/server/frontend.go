package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

// backend is what a frontend admits through: a node's *Server, or the
// fleet coordinator routing to many nodes.  Metrics is the /metrics
// document, a fresh map the frontend adds its own counters to.
type backend interface {
	CanonicalizeSpec(spec JobSpec) (JobSpec, error)
	SubmitCanonical(ctx context.Context, canonical JobSpec, key, tenant string, cost float64) (Job, *Refusal)
	Metrics() map[string]any
}

// frontend is the one front door of a node and of the fleet coordinator:
// single-flight collapsing, batch admission and cost estimation over a
// backend.  Its handler owns the routes it adds and passes everything
// else to the backend's own routes untouched.
type frontend struct {
	b        backend
	handler  http.Handler
	drr      *DRR // the node's queue, for traffic_tenants; nil for a fleet
	maxBatch int
	memLimit int64

	mu      sync.Mutex
	flights map[flightKey]*flight // pending and engine submissions

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
// table: h is then set (under frontend.mu), bytes is written exactly once
// before done closes, and every joiner fans out those bytes.  A flight
// that settled as a cache hit or a refusal leaves the table at once, and
// its waiters admit for themselves.  A cache hit's flight is returned to
// its submitter with bytes written and done closed.
type flight struct {
	key     flightKey
	settled chan struct{}
	h       Job
	done    chan struct{}
	bytes   []byte // the terminal document; nil if it failed to render
}

// flightKey is what identical submissions share a flight by: the cache
// key and the deadline, the one spec field the key leaves out.  A run's
// result does not depend on timeout_ms, but how it ends does, so a
// submission never joins a run under another deadline.
type flightKey struct {
	cacheKey  string
	timeoutMS int
}

// NewFrontend returns the front door of a backend that is not a node, the
// fleet coordinator: the frontend every node serves (Server.Handler), at a
// node's default MaxBatch, with no memory limit and no queue, over routes,
// the backend's own routing table.
func NewFrontend(b backend, routes http.Handler) http.Handler {
	return newFrontend(b, routes, nil, Config{}.withDefaults()).handler
}

// newFrontend builds a frontend over b whose handler passes every route it
// does not own to routes.  drr is the node's queue, whose per-tenant stats
// /metrics then carries as traffic_tenants; cfg's MaxBatch and MemLimit
// are its settings.  POST /v1/jobs is its own, so single submissions
// collapse too.
func newFrontend(b backend, routes http.Handler, drr *DRR, cfg Config) *frontend {
	f := &frontend{
		b:        b,
		drr:      drr,
		maxBatch: cfg.MaxBatch,
		memLimit: cfg.MemLimit,
		flights:  make(map[flightKey]*flight),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", f.handleSubmit)
	mux.HandleFunc("POST /v1/jobs:batch", f.handleBatch)
	mux.HandleFunc("POST /v1/estimate", f.handleEstimate)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.Handle("/", routes)
	f.handler = mux
	return f
}

// admissionOf prices and keys a canonical spec.
func admissionOf(canonical JobSpec) admission {
	return admission{canonical: canonical, key: CacheKey(canonical), est: forSpec(canonical)}
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
func (f *frontend) admit(ctx context.Context, a admission, tenant string) (fl *flight, collapsed bool, rf *Refusal) {
	key, est := flightKey{a.key, a.canonical.TimeoutMS}, a.est
	if lim := f.memLimit; lim > 0 && a.canonical.MemBudget == 0 && est.PeakResidentBytes > lim {
		f.ctr.memRejections.Add(1)
		return nil, false, &Refusal{
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
			return nil, false, &Refusal{Code: http.StatusRequestTimeout, Message: "client went away before admission"}
		case <-fl.settled:
		}
	}
}

// open submits the spec of the flight admit just published and settles
// it.  An engine run stays in the table with a resolver waiting it out.  A
// submission the backend answered from its cache is rendered here, once,
// and like a refusal leaves the table at once: it starts no goroutine and
// is never joined, so hits never collapse.
func (f *frontend) open(ctx context.Context, fl *flight, canonical JobSpec, tenant string, cost float64) (*flight, bool, *Refusal) {
	h, rf := f.b.SubmitCanonical(ctx, canonical, fl.key.cacheKey, tenant, cost)
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
		fl.h, fl.done, fl.bytes = h, closedDone, render(h)
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
func (f *frontend) resolve(fl *flight) {
	<-fl.h.Done()
	fl.bytes = render(fl.h)
	f.mu.Lock()
	if f.flights[fl.key] == fl {
		delete(f.flights, fl.key)
	}
	f.mu.Unlock()
	close(fl.done)
}

// render is a terminal job's response body, the bytes every subscriber
// of its flight receives; nil when the document failed to render, which
// every subscriber answers 500 renderFailed.
func render(h Job) []byte {
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
func (f *frontend) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := readSpec(w, r, maxMemoBody)
	a, memoised := f.memo.get(body)
	var spec JobSpec
	if !memoised {
		var ok bool
		if spec, ok = body.Decode(w); !ok {
			return
		}
	}
	tenant, err := tenantFrom(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !memoised {
		canonical, err := f.b.CanonicalizeSpec(spec)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
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
			WriteError(w, http.StatusInternalServerError, renderFailed)
			return
		}
		WriteRaw(w, http.StatusOK, fl.bytes)
	default:
		writeHandle(w, fl.h)
	}
}

// writeHandle renders the job's current document with the server's
// 200-when-terminal / 202-while-pending status contract.
func writeHandle(w http.ResponseWriter, h Job) {
	code := http.StatusAccepted
	if h.Terminal() {
		code = http.StatusOK
	}
	b, err := h.ResponseBytes()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, renderFailed)
		return
	}
	WriteRaw(w, code, b)
}

// batchItem is one per-spec verdict, in input order.
type batchItem struct {
	Index      int             `json:"index"`
	Code       int             `json:"code"`
	Error      string          `json:"error,omitempty"`
	ID         string          `json:"id,omitempty"`
	Key        string          `json:"key,omitempty"`
	Status     Status          `json:"status,omitempty"`
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
func (f *frontend) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBatch(w, r, f.maxBatch)
	if !ok {
		return
	}
	tenant, err := tenantFrom(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
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
				WriteError(w, http.StatusRequestTimeout, "client went away mid-batch")
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
	WriteJSON(w, http.StatusOK, resp)
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
func (f *frontend) handleEstimate(w http.ResponseWriter, r *http.Request) {
	spec, ok := decodeSpec(w, r)
	if !ok {
		return
	}
	canonical, err := f.b.CanonicalizeSpec(spec)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	f.ctr.estimates.Add(1)
	est := forSpec(canonical)
	WriteJSON(w, http.StatusOK, estimateResponse{
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
// plus the frontend's traffic_* counters, and the per-tenant DRR stats
// when the frontend holds the node's queue.
func (f *frontend) handleMetrics(w http.ResponseWriter, _ *http.Request) {
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
	WriteJSON(w, http.StatusOK, doc)
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
