// Command simdfleet runs the fleet coordinator: an HTTP front end over
// N simdserve nodes that routes jobs by consistent hashing on the
// canonical cache key, spills overflow with a GP-style rotating pointer
// (the paper's §4.1 matcher, one level up), health-probes the nodes
// with exponential backoff, and on node death re-dispatches in-flight
// jobs to a survivor with their latest checkpoint — so an interrupted
// job still completes to the byte-identical result.
//
// Quickstart (or just `make fleet`):
//
//	simdserve -addr 127.0.0.1:18081 -spool /tmp/fleet/n1 &
//	simdserve -addr 127.0.0.1:18082 -spool /tmp/fleet/n2 &
//	simdserve -addr 127.0.0.1:18083 -spool /tmp/fleet/n3 &
//	simdfleet -addr :18080 -nodes http://127.0.0.1:18081,http://127.0.0.1:18082,http://127.0.0.1:18083
//	curl -s -X POST localhost:18080/v1/jobs -d '{
//	  "domain": "puzzle", "scheme": "GP-DK", "p": 256,
//	  "puzzle": {"seed": 5, "steps": 16}
//	}'
//	curl -s localhost:18080/fleet
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
	"strings"
	"syscall"
	"time"

	"simdtree/internal/cluster"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simdfleet:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":18080", "listen address")
		nodesFlag   = flag.String("nodes", "", "comma-separated backend base URLs (required), e.g. http://127.0.0.1:18081,http://127.0.0.1:18082")
		overflow    = flag.Int("overflow", 8, "queue depth above which the GP pointer spills jobs to an underloaded node")
		probe       = flag.Duration("probe", 2*time.Second, "health-probe cadence")
		syncEvery   = flag.Duration("sync", 2*time.Second, "job-status and checkpoint-pull cadence")
		failAfter   = flag.Int("fail-threshold", 3, "consecutive probe failures before a node is ejected")
		reqTimeout  = flag.Duration("request-timeout", 10*time.Second, "per-request timeout for node calls")
		stealEvery  = flag.Duration("steal", 0, "work-stealing sweep cadence; 0 disables cross-node stealing")
		stealShards = flag.Int("steal-shards", 2, "shards a stolen job is split into (donor keeps one)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	var nodes []string
	for _, n := range strings.Split(*nodesFlag, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, strings.TrimRight(n, "/"))
		}
	}
	if len(nodes) == 0 {
		return errors.New("need -nodes with at least one backend URL")
	}

	coord, err := cluster.New(cluster.Config{
		Nodes:          nodes,
		OverflowDepth:  *overflow,
		ProbeInterval:  *probe,
		SyncInterval:   *syncEvery,
		FailThreshold:  *failAfter,
		RequestTimeout: *reqTimeout,
		StealInterval:  *stealEvery,
		StealShards:    *stealShards,
	})
	if err != nil {
		return err
	}
	// Prime the health and queue-depth view before the first request.
	coord.ProbeOnce(context.Background())

	httpSrv := &http.Server{
		Handler:           coord.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Bind before announcing, so the line names the address actually bound.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "simdfleet: listening on %s, fronting %d node(s)\n", ln.Addr(), len(nodes))
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "simdfleet: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpErr := httpSrv.Shutdown(shutCtx)
	coordErr := coord.Shutdown(shutCtx)
	if httpErr != nil && !errors.Is(httpErr, http.ErrServerClosed) {
		return httpErr
	}
	return coordErr
}
