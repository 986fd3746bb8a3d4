// Command simdserve runs the HTTP/JSON search service over the simulated
// SIMD machine: submit job specs, poll results, cancel jobs, and scrape
// runtime metrics.  Results are deterministic in the job spec, so the
// service caches them by canonical spec hash.  With -spool DIR, running
// jobs checkpoint into DIR and a restarted server resumes any job a
// previous process left interrupted, completing it to the identical
// result.
//
// Every node serves through its one front door, the frontend
// (internal/server/frontend.go): batch submission (POST /v1/jobs:batch),
// single-flight collapsing of concurrent identical specs and cost
// estimation (POST /v1/estimate), over one queue with deficit-round-robin
// tenant fairness keyed on the X-Tenant header.  The node streams SSE
// progress (GET /v1/jobs/{id}/events, resumable via Last-Event-ID) and
// bounds one tenant's outstanding jobs (-tenant-quota).
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
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"simdtree/internal/server"
)

// errUsage reports flags the command refused; it has printed why.
var errUsage = errors.New("invalid flags")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	switch {
	case err == nil:
		return
	case errors.Is(err, errUsage):
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "simdserve:", err)
	os.Exit(1)
}

// run serves until ctx is done, then drains.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("simdserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		workers     = fs.Int("workers", 2, "concurrent job executors")
		queueSize   = fs.Int("queue", 64, "bounded job queue size, at least 1 (full queue returns 429)")
		cacheSize   = fs.Int("cache", 512, "result cache capacity in entries")
		history     = fs.Int("history", 4096, "finished jobs kept addressable")
		timeout     = fs.Duration("timeout", 5*time.Minute, "default per-job deadline (0 = none)")
		simWorkers  = fs.Int("simworkers", 0, "goroutines per simulated cycle (0 = sequential; never changes results)")
		drain       = fs.Duration("drain", 30*time.Second, "graceful-shutdown grace period for running jobs")
		spool       = fs.String("spool", "", "directory for crash-recovery job checkpoints (empty = disabled); on startup interrupted jobs found there are resumed")
		ckptEvery   = fs.Int("checkpoint-every", 1000, "cycles between spooled checkpoints of a running job (needs -spool)")
		memBudget   = fs.Int64("mem-budget", 0, "default per-job memory budget in bytes for simulated stack storage (0 = unbounded); budgeted jobs spill cold stack levels to disk with identical results")
		memLimit    = fs.Int64("mem-limit", 0, "refuse specs whose predicted peak resident memory exceeds this many bytes unless they set mem_budget (0 = no check)")
		enablePprof = fs.Bool("pprof", false, "serve the net/http/pprof profiling endpoints under /debug/pprof/ (exposes internals; enable only on trusted networks)")

		tenantQuota   = fs.Int("tenant-quota", 0, "max outstanding jobs per tenant (0 = unlimited)")
		maxBatch      = fs.Int("max-batch", 64, "max specs per POST /v1/jobs:batch request")
		progressEvery = fs.Int("progress-every", 250, "cycles between SSE progress events (negative = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *queueSize < 1 {
		fmt.Fprintf(stderr, "-queue must be at least 1, got %d\n", *queueSize)
		return errUsage
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
		ProgressEvery:   *progressEvery,
		TenantQuota:     *tenantQuota,
		MemBudget:       *memBudget,
		MaxBatch:        *maxBatch,
		MemLimit:        *memLimit,
	})
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Bind before announcing, so the line names the address actually bound
	// (-addr 127.0.0.1:0 picks a free port a harness can read back).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "simdserve: listening on %s (workers=%d queue=%d cache=%d)\n",
		ln.Addr(), *workers, *queueSize, *cacheSize)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stderr, "simdserve: shutting down, draining jobs...")
	drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), svc.DrainTimeout())
	defer cancel()
	httpErr := httpSrv.Shutdown(drainCtx)
	svcErr := svc.Shutdown(drainCtx)
	if httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed) {
		return httpErr
	}
	if svcErr != nil {
		return fmt.Errorf("drain incomplete: %w", svcErr)
	}
	fmt.Fprintln(stderr, "simdserve: drained cleanly")
	return nil
}
