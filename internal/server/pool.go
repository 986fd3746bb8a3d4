package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/simd"
	"simdtree/internal/spill"
	"simdtree/internal/trace"
)

// startWorkers launches the pool.  Each worker pulls from the queue until
// Shutdown closes it and it is drained.
func (s *Server) startWorkers() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := s.queue.next(); j != nil; j = s.queue.next() {
				s.runJob(j)
			}
		}()
	}
}

// runJob executes one job end to end: derive its cancellable context,
// run the domain with panic isolation, classify the outcome, publish the
// result and feed the cache and metrics.
func (s *Server) runJob(j *job) {
	r := j.run
	// A queued job may already have been cancelled via DELETE or by
	// shutdown; honour that before paying for a run.
	select {
	case <-r.ctx.Done():
		s.finishJob(j, StatusCancelled, metrics.Stats{Cancelled: true}, nil, causeMessage(r.ctx))
		s.cleanSpool(j, context.Cause(r.ctx))
		return
	default:
	}

	ctx := r.ctx
	timeout := time.Duration(j.spec.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	var cancelTimeout context.CancelFunc
	if timeout > 0 {
		ctx, cancelTimeout = context.WithTimeoutCause(ctx, timeout, context.DeadlineExceeded)
		defer cancelTimeout()
	}

	opts, err := s.buildOptions(j.spec)
	if err != nil {
		s.finishJob(j, StatusFailed, metrics.Stats{}, nil, err.Error())
		return
	}
	var tr *trace.Trace
	if j.spec.Trace {
		tr = &trace.Trace{}
		opts.Trace = tr
	}

	started := time.Now()
	j.mu.Lock()
	j.status = StatusRunning
	j.started = started
	j.mu.Unlock()
	r.events.Append(JobEvent{Type: EventStatus, Status: StatusRunning})
	s.ctr.jobsRunning.Add(1)
	defer s.ctr.jobsRunning.Add(-1)

	stats, tr, runErr := s.run(ctx, j, opts, tr)
	latency := time.Since(started)
	s.latencies.observe(j.spec.Scheme, latency)
	s.ctr.runDurSumNS.Add(int64(latency))
	s.ctr.runDurCount.Add(1)

	switch {
	case runErr == nil:
		s.cache.put(j.key, cachedResult{Stats: stats, Trace: tr})
		s.finishJob(j, StatusDone, stats, tr, "")
	case errors.Is(runErr, simd.ErrBudgetExceeded):
		s.finishJob(j, StatusExhausted, stats, tr, runErr.Error())
	case errors.Is(runErr, context.DeadlineExceeded):
		s.finishJob(j, StatusTimeout, stats, tr, runErr.Error())
	case errors.Is(runErr, context.Canceled),
		errors.Is(runErr, errCancelRequested),
		errors.Is(runErr, errShutdown):
		s.finishJob(j, StatusCancelled, stats, tr, runErr.Error())
	default:
		s.finishJob(j, StatusFailed, stats, tr, runErr.Error())
	}
	s.cleanSpool(j, runErr)
}

// cleanSpool deletes a terminal job's spool file — except when shutdown
// ended the job (the file is exactly what lets the next process resume
// it).
func (s *Server) cleanSpool(j *job, cause error) {
	if s.spool == nil || errors.Is(cause, errShutdown) {
		return
	}
	s.spool.remove(j.key)
}

// runEnv builds the checkpoint plumbing the runner sees: a spool-backed
// writer under the job's cache key, the resume payload when the job was
// recovered from the spool, the counters both feed, and the sink that
// turns checkpoint writes into job events for the SSE stream.
func (s *Server) runEnv(j *job) RunEnv {
	r := j.run
	env := RunEnv{}
	if s.spool != nil {
		spec, err := json.Marshal(j.spec)
		if err != nil {
			// A canonical JobSpec is plain data; Marshal cannot fail on it.
			panic(fmt.Sprintf("server: marshal canonical spec: %v", err))
		}
		env.CheckpointEvery = s.cfg.CheckpointEvery
		env.SpecJSON = spec
		env.Write = func(b []byte) error {
			if err := s.spool.write(j.key, b); err != nil {
				return err
			}
			s.ctr.checkpointsWritten.Add(1)
			return nil
		}
		env.Checkpointed = func(cycle int) {
			r.events.Append(JobEvent{Type: EventCheckpoint, Cycle: cycle})
		}
		env.SpillDir = s.spool.spillDir(j.key)
	}
	env.SpillStats = func(st spill.Stats) {
		s.ctr.spillEvictions.Add(st.Evictions)
		s.ctr.spillFaults.Add(st.Faults)
		s.ctr.spillBytesWritten.Add(st.BytesWritten)
		s.ctr.spillBytesRead.Add(st.BytesRead)
	}
	if r.resume != nil {
		env.Resume = r.resume
		env.OnResume = func(cycle int) {
			j.setResumed(cycle)
			s.ctr.jobsResumed.Add(1)
		}
	}
	return env
}

// execute dispatches to the domain runner with panic isolation: a
// panicking domain fails its own job and leaves the worker (and process)
// alive.  It sets the run's one progress hook, which feeds the job's SSE
// stream through (*jobRun).progress.
func (s *Server) execute(ctx context.Context, j *job, opts simd.Options) (stats metrics.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.ctr.panics.Add(1)
			err = fmt.Errorf("domain %q panicked: %v\n%s", j.spec.Domain, r, debug.Stack())
		}
	}()
	run, ok := s.runners[j.spec.Domain]
	if !ok {
		return metrics.Stats{}, fmt.Errorf("no runner for domain %q", j.spec.Domain)
	}
	if s.cfg.ProgressEvery > 0 {
		opts.ProgressEvery = s.cfg.ProgressEvery
		r := j.run
		opts.Progress = func(pi simd.ProgressInfo) { r.progress(pi, nil) }
	}
	return run(ctx, j.spec, opts, s.runEnv(j))
}

// finishJob returns the job's quota slot, makes its terminal transition
// (job.finish) and bumps the outcome counters.  The slot is returned
// first, so a client that saw the job end finds it free.
func (s *Server) finishJob(j *job, status Status, stats metrics.Stats, tr *trace.Trace, errMsg string) {
	if r := j.run; r != nil && r.quota {
		s.queue.release(j.tenant)
	}
	if !j.finish(status, stats, tr, errMsg, time.Now()) {
		return
	}
	switch status {
	case StatusDone:
		s.ctr.jobsDone.Add(1)
	case StatusCancelled:
		s.ctr.jobsCancelled.Add(1)
	case StatusTimeout:
		s.ctr.jobsTimeout.Add(1)
	case StatusExhausted:
		s.ctr.jobsExhausted.Add(1)
	case StatusFailed:
		s.ctr.jobsFailed.Add(1)
	}
}

// causeMessage renders a context's cancellation cause for the job record.
func causeMessage(ctx context.Context) string {
	if cause := context.Cause(ctx); cause != nil {
		return cause.Error()
	}
	return context.Canceled.Error()
}
