package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"simdtree/internal/checkpoint"
	"simdtree/internal/metrics"
	"simdtree/internal/trace"
)

// Config shapes a Server.  The zero value is usable: every field has a
// production-sane default.
type Config struct {
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// QueueSize is the capacity of the queue New builds when Scheduler is
	// nil: the number of queued-but-not-running jobs, past which a
	// submission is refused with 429 (default 64).
	QueueSize int
	// CacheSize caps the LRU result cache in entries (default 512).
	CacheSize int
	// JobHistory caps the number of finished jobs kept addressable
	// (default DefaultJobHistory); running and queued jobs are never
	// evicted.
	JobHistory int
	// DefaultTimeout applies to jobs that do not set timeout_ms; 0 means
	// no default deadline.
	DefaultTimeout time.Duration
	// SimWorkers shards each simulated cycle across this many goroutines
	// (the engine's Options.Workers); results are identical for any
	// value (default 1).
	SimWorkers int
	// Runners adds or overrides domain runners (tests inject failure
	// modes this way).  Built-ins: puzzle, synthetic, queens.
	Runners map[string]Runner
	// Spool names a directory where running jobs persist checkpoints for
	// crash recovery; "" disables spooling.  On startup the server
	// rescans it and resumes every job a previous process left
	// interrupted.
	Spool string
	// CheckpointEvery is the cycle cadence of spooled checkpoints
	// (default 1000 when Spool is set; ignored otherwise).
	CheckpointEvery int
	// EnablePprof mounts the net/http/pprof profiling endpoints under
	// /debug/pprof/.  Off by default: the profiles expose internals
	// (heap contents, command line) that do not belong on an open
	// service port.
	EnablePprof bool
	// DrainTimeout is the graceful-shutdown grace period the operator
	// gives running jobs (default 30s).  It is advertised in /version as
	// drain_timeout_ms so a fleet coordinator draining or ejecting this
	// node knows exactly how long to wait before declaring its jobs
	// lost.
	DrainTimeout time.Duration
	// Scheduler is the node's queue, which admits jobs (drain, capacity,
	// TenantQuota) and hands them to the workers in per-tenant rotation;
	// nil builds NewDRR(QueueSize).  New sets its quota to TenantQuota.
	// benchmark/ is its only non-test caller, and passes the queue a nil
	// Scheduler builds at the default QueueSize (traffic.NewDRR(64, 1)).
	Scheduler *DRR
	// ProgressEvery is the cycle cadence of per-job progress events (the
	// SSE feed); default 250.  Negative disables progress events.
	ProgressEvery int
	// TenantQuota bounds the jobs a single tenant may have queued or
	// running through SubmitCanonical; a cache hit or an import never
	// holds a slot.  0 means unlimited.
	TenantQuota int
	// MemBudget is the default per-job memory budget in bytes for the
	// simulated machine's stack storage, applied when a spec leaves
	// mem_budget unset; 0 runs unbounded.  Budgeted runs spill cold stack
	// levels to disk and produce results identical to unbounded ones, so
	// the default sits safely below the cache key.
	MemBudget int64
	// MaxBatch bounds the specs accepted by one POST /v1/jobs:batch
	// request (default 64).
	MaxBatch int
	// MemLimit is the node's resident-memory comfort line in bytes.
	// When positive, a spec that neither sets mem_budget nor fits —
	// predicted peak resident bytes within the limit — is refused with
	// 413 and told to resubmit with a mem_budget, under which the run
	// spills to disk instead of growing without bound.  0 disables the
	// check.
	MemLimit int64
}

// DefaultJobHistory is a node's default Config.JobHistory, and the
// history the fleet coordinator keeps of its own jobs.
const DefaultJobHistory = 4096

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 512
	}
	if c.JobHistory <= 0 {
		c.JobHistory = DefaultJobHistory
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = 1
	}
	if c.Spool != "" && c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1000
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.ProgressEvery == 0 {
		c.ProgressEvery = 250
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	return c
}

// DrainTimeout reports the configured graceful-drain grace period, the
// single source the serving binary and /version both read.
func (s *Server) DrainTimeout() time.Duration { return s.cfg.DrainTimeout }

// Server is the simdserve HTTP service: a bounded job queue over the
// deterministic SIMD simulator, with an LRU result cache and
// observability endpoints.
type Server struct {
	cfg       Config
	runners   map[string]Runner
	domains   map[string]bool
	cache     *resultCache
	store     *JobStore[*job]
	latencies *schemeLatencies
	spool     *spool // nil when spooling is disabled
	steal     *stealRegistry
	peers     NodeCall // drives a stolen job's shard sessions on other nodes
	ctr       counters

	rootCtx  context.Context
	rootStop context.CancelCauseFunc

	queue *DRR      // the one queue, and the one admission decision
	front *frontend // the one front door (Handler)

	started time.Time
	wg      sync.WaitGroup
}

// New builds a Server and starts its worker pool.  When cfg.Spool is
// set, it also rescans the spool directory and re-queues every job a
// previous process left checkpointed there.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	runners := defaultRunners()
	for name, r := range cfg.Runners {
		runners[name] = r
	}
	domains := make(map[string]bool, len(runners))
	for name := range runners {
		domains[name] = true
	}
	//lint:allow ctxflow server-lifetime root context, cancelled by Shutdown
	rootCtx, rootStop := context.WithCancelCause(context.Background())
	queue := cfg.Scheduler
	if queue == nil {
		queue = NewDRR(cfg.QueueSize)
	}
	queue.quota = cfg.TenantQuota
	s := &Server{
		cfg:       cfg,
		runners:   runners,
		domains:   domains,
		cache:     newResultCache(cfg.CacheSize),
		store:     NewJobStore[*job]("j", cfg.JobHistory),
		latencies: newSchemeLatencies(),
		steal:     newStealRegistry(),
		peers:     caller(&http.Client{Timeout: peerTimeout}),
		rootCtx:   rootCtx,
		rootStop:  rootStop,
		queue:     queue,
		started:   time.Now(),
	}
	if cfg.Spool != "" {
		sp, err := openSpool(cfg.Spool)
		if err != nil {
			rootStop(errShutdown)
			return nil, fmt.Errorf("spool %s: %w", cfg.Spool, err)
		}
		s.spool = sp
	}
	s.front = newFrontend(s, s.routes(), queue, cfg)
	s.startWorkers()
	if s.spool != nil {
		s.resumeSpooled()
	}
	return s, nil
}

// Shutdown drains the service gracefully: no new submissions are
// accepted, queued and running jobs are allowed to finish until ctx
// expires, then the remainder is cancelled and the pool joined.
func (s *Server) Shutdown(ctx context.Context) error {
	s.queue.close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Grace period over: cancel everything still running and wait
		// for the workers to observe it.
		s.rootStop(errShutdown)
		<-done
		return ctx.Err()
	}
}

// Handler returns the node's front door: its frontend, which owns
// submission (POST /v1/jobs, :batch), /v1/estimate and /metrics and passes
// every other route to the node's own (routes).
func (s *Server) Handler() http.Handler { return s.front.handler }

// routes is the routing table of everything the frontend passes through.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs/import", s.handleImport)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.handleExportCheckpoint)
	mux.HandleFunc("GET /v1/jobs/{id}/stealable", s.handleStealable)
	mux.HandleFunc("POST /v1/jobs/{id}/steal", s.handleSteal)
	mux.HandleFunc("POST "+sessionsPath, s.handleStealOpen)
	mux.HandleFunc("DELETE "+sessionRoute, s.handleStealClose)
	for _, op := range shardOps {
		op.register(s, mux)
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /version", s.handleVersion)
	if s.cfg.EnablePprof {
		// Registered explicitly rather than via the net/http/pprof
		// import side effect, so the handlers exist only on this mux
		// and only when the operator opted in.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// jobResponse is the wire form of a job's state.
type jobResponse struct {
	ID       string  `json:"id"`
	Status   Status  `json:"status"`
	CacheKey string  `json:"cache_key"`
	CacheHit bool    `json:"cache_hit,omitempty"`
	Tenant   string  `json:"tenant,omitempty"`
	Error    string  `json:"error,omitempty"`
	Spec     JobSpec `json:"spec"`

	// Resumed marks a job recovered from a spooled checkpoint after a
	// restart; ResumedFromCycle is the cycle the run restored at.
	Resumed          bool `json:"resumed,omitempty"`
	ResumedFromCycle int  `json:"resumed_from_cycle,omitempty"`

	// A job a fleet steal distributed: the shards its worker drives (shard
	// 0 its own), and once terminal the stack halves that crossed nodes
	// and the transfers that stayed within a shard.
	Distributed    bool        `json:"distributed,omitempty"`
	Shards         []ShardInfo `json:"shards,omitempty"`
	Donations      int         `json:"donations,omitempty"`
	LocalTransfers int         `json:"local_transfers,omitempty"`

	// Result fields are present once the job is terminal.
	Stats      *metrics.Stats `json:"stats,omitempty"`
	Efficiency float64        `json:"efficiency,omitempty"`
	Speedup    float64        `json:"speedup,omitempty"`

	SubmittedAt string `json:"submitted_at,omitempty"`
	StartedAt   string `json:"started_at,omitempty"`
	FinishedAt  string `json:"finished_at,omitempty"`
	LatencyMS   int64  `json:"latency_ms,omitempty"`
}

func renderJob(v jobView) jobResponse {
	r := jobResponse{
		ID:               v.ID,
		Status:           v.Status,
		CacheKey:         v.Key,
		CacheHit:         v.CacheHit,
		Tenant:           v.Tenant,
		Error:            v.ErrMsg,
		Spec:             v.Spec,
		Resumed:          v.Resumed,
		ResumedFromCycle: v.ResumedCycle,
		Distributed:      v.Shards != nil,
		Shards:           v.Shards,
		Donations:        v.Donations,
		LocalTransfers:   v.LocalTransfers,
	}
	if !v.Submitted.IsZero() {
		r.SubmittedAt = v.Submitted.UTC().Format(time.RFC3339Nano)
	}
	if !v.Started.IsZero() {
		r.StartedAt = v.Started.UTC().Format(time.RFC3339Nano)
	}
	if v.Status.Terminal() {
		st := v.Stats
		r.Stats = &st
		r.Efficiency = st.Efficiency()
		r.Speedup = st.Speedup()
		if !v.Finished.IsZero() {
			r.FinishedAt = v.Finished.UTC().Format(time.RFC3339Nano)
			if !v.Submitted.IsZero() {
				r.LatencyMS = v.Finished.Sub(v.Submitted).Milliseconds()
			}
		}
	}
	return r
}

// newJob builds a queued job of tenant, which the store names as it adds
// it: its record, and the run whose context derives from the server's
// root, with resume the checkpoint the run restores (nil for a fresh
// run).  Submission, import and spool resumption share it.
func (s *Server) newJob(canonical JobSpec, key, tenant string, resume []byte, now time.Time) *job {
	ctx, cancel := context.WithCancelCause(s.rootCtx)
	return &job{
		spec:      canonical,
		key:       key,
		tenant:    tenant,
		status:    StatusQueued,
		submitted: now,
		run:       &jobRun{ctx: ctx, cancel: cancel, done: make(chan struct{}), resume: resume, cost: 1},
	}
}

// hitJob is the deterministic-cache fast path: when an identical canonical
// spec already ran to completion, its Stats (and trace) are the result of
// a new job of tenant, byte for byte.  That job is born terminal — its one
// event is the terminal one, at seq 1, which its record rebuilds — and
// stored; it never builds a run.  ok is false on a miss.
func (s *Server) hitJob(canonical JobSpec, key, tenant string, now time.Time) (j *job, ok bool) {
	res, ok := s.cache.get(key)
	if !ok {
		s.ctr.cacheMisses.Add(1)
		return nil, false
	}
	s.ctr.cacheHits.Add(1)
	j = &job{
		spec:      canonical,
		key:       key,
		tenant:    tenant,
		hit:       res.hit,
		status:    StatusDone,
		stats:     res.Stats,
		cacheHit:  true,
		trace:     res.Trace,
		submitted: now,
		started:   now,
		finished:  now,
	}
	s.store.Add(j, &j.id)
	s.ctr.jobsDone.Add(1)
	return j, true
}

// enqueue offers j to the queue, whose push alone decides admission:
// drain state, Config.TenantQuota for a submission (quota set; only here
// is a submission known to be an engine job rather than a cache hit) and
// backpressure.  On success j is stored; on refusal its context is
// cancelled.  A full queue's 429 carries a Retry-After derived from the
// backlog and the recent mean job duration.  The queued event is appended
// before the push: a free worker may run and finish j before push
// returns, and the terminal event must end its log.
func (s *Server) enqueue(j *job, quota bool) *Refusal {
	r := j.run
	r.events.Append(JobEvent{Type: EventStatus, Status: StatusQueued})
	switch s.queue.push(j, quota) {
	case refusedClosed:
		r.cancel(errShutdown)
		return &Refusal{Code: http.StatusServiceUnavailable, Message: "server is shutting down"}
	case refusedQuota:
		r.cancel(errCancelRequested)
		s.ctr.quotaRejections.Add(1)
		q := s.queue.quota
		return &Refusal{
			Code:       http.StatusTooManyRequests,
			Message:    fmt.Sprintf("tenant %q has %d jobs outstanding (quota %d)", j.tenant, q, q),
			RetryAfter: 1,
		}
	case refusedFull:
		r.cancel(errCancelRequested)
		s.ctr.jobsRejected.Add(1)
		return &Refusal{
			Code:       http.StatusTooManyRequests,
			Message:    fmt.Sprintf("queue full (%d jobs); retry later", s.queue.capacity),
			RetryAfter: s.retryAfterSeconds(),
		}
	}
	s.ctr.jobsQueued.Add(1)
	s.store.Add(j, &j.id)
	return nil
}

// handleGet implements GET /v1/jobs/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job id")
		return
	}
	WriteJSON(w, http.StatusOK, renderJob(j.view()))
}

// handleList implements GET /v1/jobs: all addressable jobs, oldest first.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.store.All()
	out := make([]jobResponse, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, renderJob(j.view()))
	}
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// handleCancel implements DELETE /v1/jobs/{id}.  Only the job's own
// tenant (X-Tenant) may cancel a live job; any other is refused 403.
// Cancelling a terminal job is a no-op that reports the final state.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job id")
		return
	}
	tenant, err := tenantFrom(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !j.requestCancel(tenant, errCancelRequested) {
		WriteError(w, http.StatusForbidden, fmt.Sprintf("job %s belongs to another tenant; only its own %s may cancel it", j.id, TenantHeader))
		return
	}
	WriteJSON(w, http.StatusOK, renderJob(j.view()))
}

// handleTrace implements GET /v1/jobs/{id}/trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job id")
		return
	}
	v := j.view()
	serveTrace(w, r, v.ID, v.Spec.Trace, v.Status, v.Trace)
}

// handleEvents implements GET /v1/jobs/{id}/events: the job's progress
// stream as Server-Sent Events, resumable with Last-Event-ID.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job id")
		return
	}
	after, err := lastEventID(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.ctr.sseStreams.Add(1)
	if after > 0 {
		s.ctr.sseResumes.Add(1)
	}
	StreamEvents(r.Context(), w, after, j.eventsSince, HeartbeatEvery)
}

// traceResponse is the wire form of a per-cycle trace.  SamplesTotal and
// PhasesTotal are the full lengths; Truncated marks a response bounded
// by ?trace_limit=.
type traceResponse struct {
	ID           string        `json:"id"`
	Samples      []traceSample `json:"samples"`
	Phases       []tracePhase  `json:"phases"`
	SamplesTotal int           `json:"samples_total"`
	PhasesTotal  int           `json:"phases_total"`
	Truncated    bool          `json:"truncated,omitempty"`
}

type traceSample struct {
	Cycle  int `json:"cycle"`
	Active int `json:"active"`
}

type tracePhase struct {
	Cycle     int   `json:"cycle"`
	Transfers int   `json:"transfers"`
	CostNS    int64 `json:"cost_ns"`
}

// renderTrace converts a trace for the wire, keeping the first limit
// samples and phases; limit < 0 means unbounded.
func renderTrace(id string, tr *trace.Trace, limit int) traceResponse {
	nSamples, nPhases := len(tr.Samples), len(tr.Events)
	out := traceResponse{ID: id, SamplesTotal: nSamples, PhasesTotal: nPhases}
	if limit >= 0 && (limit < nSamples || limit < nPhases) {
		out.Truncated = true
		if limit < nSamples {
			nSamples = limit
		}
		if limit < nPhases {
			nPhases = limit
		}
	}
	out.Samples = make([]traceSample, nSamples)
	out.Phases = make([]tracePhase, nPhases)
	for i := range out.Samples {
		sm := tr.Samples[i]
		out.Samples[i] = traceSample{Cycle: sm.Cycle, Active: sm.Active}
	}
	for i := range out.Phases {
		ev := tr.Events[i]
		out.Phases[i] = tracePhase{Cycle: ev.Cycle, Transfers: ev.Transfers, CostNS: int64(ev.Cost)}
	}
	return out
}

// handleHealthz implements GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.queue.draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, map[string]string{"status": status})
}

// handleVersion implements GET /version from the embedded build info,
// plus the checkpoint format version the spool writes and accepts.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	out := map[string]string{
		"module":            "simdtree",
		"go":                "",
		"version":           "(devel)",
		"vcs_revision":      "",
		"checkpoint_format": strconv.Itoa(checkpoint.Version),
		"drain_timeout_ms":  strconv.FormatInt(s.cfg.DrainTimeout.Milliseconds(), 10),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		out["go"] = bi.GoVersion
		if bi.Main.Version != "" {
			out["version"] = bi.Main.Version
		}
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				out["vcs_revision"] = kv.Value
			}
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

// Metrics is the /metrics document: every counter, gauge and per-scheme
// latency histogram the node keeps, each named here and nowhere else.  The
// map is fresh on every call, so the node's frontend adds its own counters
// to it before writing it.  scheme_latency_ms appears once a job has run.
func (s *Server) Metrics() map[string]any {
	running := s.ctr.jobsRunning.Load()
	m := map[string]any{
		"uptime_seconds":                 time.Since(s.started).Seconds(),
		"jobs_queued_total":              s.ctr.jobsQueued.Load(),
		"jobs_running":                   running,
		"jobs_done_total":                s.ctr.jobsDone.Load(),
		"jobs_cancelled_total":           s.ctr.jobsCancelled.Load(),
		"jobs_timeout_total":             s.ctr.jobsTimeout.Load(),
		"jobs_exhausted_total":           s.ctr.jobsExhausted.Load(),
		"jobs_failed_total":              s.ctr.jobsFailed.Load(),
		"jobs_rejected_total":            s.ctr.jobsRejected.Load(),
		"domain_panics_total":            s.ctr.panics.Load(),
		"cache_hits_total":               s.ctr.cacheHits.Load(),
		"cache_misses_total":             s.ctr.cacheMisses.Load(),
		"cache_entries":                  s.cache.len(),
		"queue_depth":                    s.queue.depth(),
		"queue_capacity":                 s.queue.capacity,
		"workers":                        s.cfg.Workers,
		"busy_workers":                   running,
		"worker_utilization":             float64(running) / float64(s.cfg.Workers),
		"checkpoints_written_total":      s.ctr.checkpointsWritten.Load(),
		"jobs_resumed_total":             s.ctr.jobsResumed.Load(),
		"spill_evictions_total":          s.ctr.spillEvictions.Load(),
		"spill_faults_total":             s.ctr.spillFaults.Load(),
		"spill_bytes_written_total":      s.ctr.spillBytesWritten.Load(),
		"spill_bytes_read_total":         s.ctr.spillBytesRead.Load(),
		"checkpoints_exported_total":     s.ctr.checkpointsExported.Load(),
		"jobs_imported_total":            s.ctr.jobsImported.Load(),
		"steal_runs_completed_total":     s.ctr.stealCompleted.Load(),
		"steal_runs_failed_total":        s.ctr.stealFailed.Load(),
		"steal_donations_total":          s.ctr.stealDonations.Load(),
		"steal_local_transfers_total":    s.ctr.stealLocal.Load(),
		"steal_sessions_opened_total":    s.ctr.stealSessionsOpened.Load(),
		"steal_sessions_active":          s.steal.active(),
		"steal_frames_absorbed_total":    s.ctr.stealFramesAbsorbed.Load(),
		"steal_frames_split_total":       s.ctr.stealFramesSplit.Load(),
		"traffic_quota_rejections_total": s.ctr.quotaRejections.Load(),
		"traffic_sse_streams_total":      s.ctr.sseStreams.Load(),
		"traffic_sse_resumes_total":      s.ctr.sseResumes.Load(), // streams opened with a Last-Event-ID
	}
	if lat := s.latencies.snapshot(); len(lat) > 0 {
		m["scheme_latency_ms"] = lat
	}
	return m
}
