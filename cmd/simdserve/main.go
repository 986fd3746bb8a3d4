// Command simdserve runs the HTTP/JSON search service over the simulated
// SIMD machine: submit job specs, poll results, cancel jobs, and scrape
// runtime metrics.  Results are deterministic in the job spec, so the
// service caches them by canonical spec hash.  With -spool DIR, running
// jobs checkpoint into DIR and a restarted server resumes any job a
// previous process left interrupted, completing it to the identical
// result.
//
// The traffic layer (internal/traffic) fronts the service by default:
// batch submission (POST /v1/jobs:batch), single-flight collapsing of
// concurrent identical specs, cost estimation (POST /v1/estimate), and
// deficit-round-robin tenant fairness keyed on the X-Tenant header
// (-fair=false restores the global FIFO).  The service itself streams
// SSE progress (GET /v1/jobs/{id}/events, resumable via Last-Event-ID)
// and bounds one tenant's outstanding jobs (-tenant-quota).
//
// Quickstart:
//
//	simdserve -addr :8080 &
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/jobs -d '{
//	  "domain": "puzzle", "scheme": "GP-DK", "p": 256,
//	  "puzzle": {"seed": 5, "steps": 16}
//	}'
//	curl -s localhost:8080/v1/jobs/j1
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"simdtree/internal/server"
	"simdtree/internal/traffic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simdserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 2, "concurrent job executors")
		queueSize   = flag.Int("queue", 64, "bounded job queue size (full queue returns 429)")
		cacheSize   = flag.Int("cache", 512, "result cache capacity in entries")
		history     = flag.Int("history", 4096, "finished jobs kept addressable")
		timeout     = flag.Duration("timeout", 5*time.Minute, "default per-job deadline (0 = none)")
		simWorkers  = flag.Int("simworkers", 0, "goroutines per simulated cycle (0 = sequential; never changes results)")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown grace period for running jobs")
		spool       = flag.String("spool", "", "directory for crash-recovery job checkpoints (empty = disabled); on startup interrupted jobs found there are resumed")
		ckptEvery   = flag.Int("checkpoint-every", 1000, "cycles between spooled checkpoints of a running job (needs -spool)")
		memBudget   = flag.Int64("mem-budget", 0, "default per-job memory budget in bytes for simulated stack storage (0 = unbounded); budgeted jobs spill cold stack levels to disk with identical results")
		memLimit    = flag.Int64("mem-limit", 0, "refuse specs whose predicted peak resident memory exceeds this many bytes unless they set mem_budget (0 = no check)")
		enablePprof = flag.Bool("pprof", false, "serve the net/http/pprof profiling endpoints under /debug/pprof/ (exposes internals; enable only on trusted networks)")

		fair          = flag.Bool("fair", true, "per-tenant deficit-round-robin scheduling (X-Tenant header); false restores the global FIFO")
		quantum       = flag.Float64("quantum", 1, "DRR cost units granted per tenant visit (needs -fair)")
		tenantQuota   = flag.Int("tenant-quota", 0, "max outstanding jobs per tenant (0 = unlimited)")
		maxBatch      = flag.Int("max-batch", 64, "max specs per POST /v1/jobs:batch request")
		heartbeat     = flag.Duration("sse-heartbeat", 15*time.Second, "SSE comment-heartbeat cadence on /v1/jobs/{id}/events")
		progressEvery = flag.Int("progress-every", 250, "cycles between SSE progress events (negative = disabled)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}

	var drr *traffic.DRR
	var sched server.Scheduler
	if *fair {
		drr = traffic.NewDRR(*queueSize, *quantum)
		sched = drr
	}
	svc, err := server.New(server.Config{
		Workers:         *workers,
		QueueSize:       *queueSize,
		CacheSize:       *cacheSize,
		JobHistory:      *history,
		DefaultTimeout:  *timeout,
		SimWorkers:      *simWorkers,
		Spool:           *spool,
		CheckpointEvery: *ckptEvery,
		EnablePprof:     *enablePprof,
		DrainTimeout:    *drain,
		Scheduler:       sched,
		ProgressEvery:   *progressEvery,
		HeartbeatEvery:  *heartbeat,
		TenantQuota:     *tenantQuota,
		MemBudget:       *memBudget,
	})
	if err != nil {
		return err
	}
	frontend := traffic.New(svc, drr, traffic.Config{
		MaxBatch: *maxBatch,
		MemLimit: *memLimit,
	})
	httpSrv := &http.Server{
		Handler:           frontend.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bind before announcing, so the line names the address actually bound
	// (-addr 127.0.0.1:0 picks a free port a harness can read back).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "simdserve: listening on %s (workers=%d queue=%d cache=%d)\n",
		ln.Addr(), *workers, *queueSize, *cacheSize)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "simdserve: shutting down, draining jobs...")
	drainCtx, cancel := context.WithTimeout(context.Background(), svc.DrainTimeout())
	defer cancel()
	httpErr := httpSrv.Shutdown(drainCtx)
	svcErr := svc.Shutdown(drainCtx)
	if httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed) {
		return httpErr
	}
	if svcErr != nil {
		return fmt.Errorf("drain incomplete: %w", svcErr)
	}
	fmt.Fprintln(os.Stderr, "simdserve: drained cleanly")
	return nil
}
