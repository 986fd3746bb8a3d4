// Command simdload drives service-level load against a simdserve (or
// simdfleet) endpoint and reports jobs/sec, latency percentiles, the
// single-flight collapse rate, and per-tenant fairness — the traffic
// layer's acceptance numbers, as one JSON report.
//
// Two loop disciplines:
//
//   - closed loop (default): -clients workers each submit-wait-repeat, so
//     offered load adapts to service capacity;
//   - open loop (-rate N): arrivals at a fixed N jobs/sec regardless of
//     completions, the discipline that exposes queueing collapse.
//
// A -hot fraction of submissions reuse one identical spec, exercising
// single-flight collapsing; the rest are unique.  Submissions rotate
// through -tenants tenant labels.  Every ?wait=1 response body is checked
// byte-for-byte against the first body seen for its cache key — a
// violation means collapsed subscribers diverged, which the traffic layer
// promises never happens.
//
// With -inproc the tool runs a full server + traffic frontend inside the
// process on a loopback listener, so CI can smoke the whole stack with no
// external setup:
//
//	simdload -inproc -duration 5s -check -out /dev/null
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"simdtree/internal/server"
	"simdtree/internal/traffic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simdload:", err)
		os.Exit(1)
	}
}

type options struct {
	url       string
	inproc    bool
	duration  time.Duration
	clients   int
	rate      float64
	tenants   int
	hot       float64
	hotRotate int64
	batch     int
	wait      bool
	seed      int64
	out       string
	check     bool

	p       int
	scheme  string
	specW   int64
	workers int
}

func parseFlags() (options, error) {
	var o options
	flag.StringVar(&o.url, "url", "", "target base URL (e.g. http://localhost:8080); empty requires -inproc")
	flag.BoolVar(&o.inproc, "inproc", false, "run an in-process server + traffic frontend on a loopback listener")
	flag.DurationVar(&o.duration, "duration", 10*time.Second, "load duration")
	flag.IntVar(&o.clients, "clients", 8, "closed-loop concurrent clients (also the open-loop in-flight cap)")
	flag.Float64Var(&o.rate, "rate", 0, "open-loop arrival rate in jobs/sec (0 = closed loop)")
	flag.IntVar(&o.tenants, "tenants", 3, "tenant labels to rotate through (X-Tenant: load-<i>)")
	flag.Float64Var(&o.hot, "hot", 0.5, "fraction of submissions reusing the current hot spec (collapse fodder)")
	flag.Int64Var(&o.hotRotate, "hot-rotate", 100, "submissions between hot-spec rotations; rotation keeps the hot spec un-cached so duplicates collapse in flight rather than hit the result cache")
	flag.IntVar(&o.batch, "batch", 0, "submit via POST /v1/jobs:batch with this many specs per request (0 = single submissions)")
	flag.BoolVar(&o.wait, "wait", true, "synchronous submissions (?wait=1): latency covers the full job")
	flag.Int64Var(&o.seed, "seed", 1, "workload RNG seed")
	flag.StringVar(&o.out, "out", "-", "output file (- for stdout)")
	flag.BoolVar(&o.check, "check", false, "exit non-zero unless jobs/sec > 0, no transport errors, and zero byte-identity violations")
	flag.IntVar(&o.p, "p", 64, "simulated machine size of generated specs")
	flag.StringVar(&o.scheme, "scheme", "GP-S0.90", "load-balancing scheme of generated specs")
	flag.Int64Var(&o.specW, "w", 20000, "synthetic tree size of generated specs")
	flag.IntVar(&o.workers, "workers", 2, "in-process server workers (needs -inproc)")
	flag.Parse()
	if flag.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if o.url == "" && !o.inproc {
		return o, fmt.Errorf("need -url or -inproc")
	}
	if o.tenants < 1 {
		o.tenants = 1
	}
	if o.clients < 1 {
		o.clients = 1
	}
	return o, nil
}

// results accumulates observations across client goroutines.
type results struct {
	mu         sync.Mutex
	latencies  []time.Duration
	ok         int64
	rejected   int64
	httpErrors int64
	transport  int64
	collapsed  int64
	perTenant  map[string]int64
	bodies     map[string][]byte // job id -> first wait-mode body
	violations int64
}

func (r *results) observe(tenant string, lat time.Duration, code int, collapsed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.latencies = append(r.latencies, lat)
	switch {
	case code == http.StatusOK || code == http.StatusAccepted:
		r.ok++
		r.perTenant[tenant]++
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		r.rejected++
	default:
		r.httpErrors++
	}
	if collapsed {
		r.collapsed++
	}
}

// checkBody enforces the fan-out contract: every wait-mode body carrying
// one job id must be byte-identical to the first one seen.  (Keying on
// the cache key would be wrong: after a flight completes, a resubmission
// of the same spec legitimately opens a fresh cache-hit job with new id
// and timestamps.)
func (r *results) checkBody(key string, body []byte) {
	if key == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	first, seen := r.bodies[key]
	if !seen {
		r.bodies[key] = append([]byte(nil), body...)
		return
	}
	if !bytes.Equal(first, body) {
		r.violations++
	}
}

func run() error {
	o, err := parseFlags()
	if err != nil {
		return err
	}

	base := o.url
	var shutdown func() error
	if o.inproc {
		base, shutdown, err = startInproc(o)
		if err != nil {
			return err
		}
		defer func() { _ = shutdown() }() //lint:allow errdrop exit path; the report already printed
	}

	res := &results{perTenant: make(map[string]int64), bodies: make(map[string][]byte)}
	client := &http.Client{} // no overall timeout: wait-mode requests run job-length
	deadline := time.Now().Add(o.duration)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	started := time.Now()
	if o.rate > 0 {
		runOpenLoop(ctx, o, client, base, res)
	} else {
		runClosedLoop(ctx, o, client, base, res)
	}
	elapsed := time.Since(started)

	report := buildReport(o, res, elapsed)
	if err := emit(report, o.out); err != nil {
		return err
	}
	if o.check {
		if report.JobsPerSec <= 0 {
			return fmt.Errorf("check failed: %.2f jobs/sec", report.JobsPerSec)
		}
		if report.TransportErrors > 0 || report.HTTPErrors > 0 {
			return fmt.Errorf("check failed: %d transport / %d http errors",
				report.TransportErrors, report.HTTPErrors)
		}
		if report.ByteIdentityViolations > 0 {
			return fmt.Errorf("check failed: %d byte-identity violations (collapsed responses diverged)",
				report.ByteIdentityViolations)
		}
	}
	return nil
}

// startInproc builds a DRR-scheduled server with the traffic frontend on
// a loopback listener and returns its base URL.
func startInproc(o options) (string, func() error, error) {
	drr := traffic.NewDRR(1024, 1)
	svc, err := server.New(server.Config{
		Workers:      o.workers,
		QueueSize:    1024,
		CacheSize:    4096,
		JobHistory:   1 << 16,
		Scheduler:    drr,
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		return "", nil, err
	}
	frontend := traffic.New(svc, drr, traffic.Config{HeartbeatEvery: time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: frontend.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = httpSrv.Serve(ln) }() //lint:allow errdrop Serve always returns ErrServerClosed on shutdown
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx) //lint:allow errdrop best-effort teardown of the load target
		return svc.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// workload generates submissions: a -hot fraction reuses the current hot
// spec (rotated every -hot-rotate submissions so it stays un-cached and
// concurrent duplicates genuinely collapse in flight), the rest walk
// fresh indices.  Hot and unique seeds live in disjoint ranges.  Safe for
// concurrent use.
type workload struct {
	mu    sync.Mutex
	rng   *rand.Rand
	next  int64
	count int64
	o     options
}

func (wl *workload) spec() (server.JobSpec, string) {
	wl.mu.Lock()
	wl.count++
	var seed uint64
	if wl.rng.Float64() < wl.o.hot {
		rotate := wl.o.hotRotate
		if rotate < 1 {
			rotate = 1
		}
		seed = 1<<62 + uint64(wl.count/rotate)
	} else {
		wl.next++
		seed = uint64(wl.next)
	}
	tenant := fmt.Sprintf("load-%d", wl.rng.Intn(wl.o.tenants))
	wl.mu.Unlock()
	return server.JobSpec{
		Domain:    "synthetic",
		Scheme:    wl.o.scheme,
		P:         wl.o.p,
		Synthetic: &server.SyntheticSpec{W: wl.o.specW, Seed: seed},
	}, tenant
}

func runClosedLoop(ctx context.Context, o options, client *http.Client, base string, res *results) {
	wl := &workload{rng: rand.New(rand.NewSource(o.seed)), o: o}
	var wg sync.WaitGroup
	for i := 0; i < o.clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				submit(ctx, o, client, base, wl, res)
			}
		}()
	}
	wg.Wait()
}

func runOpenLoop(ctx context.Context, o options, client *http.Client, base string, res *results) {
	wl := &workload{rng: rand.New(rand.NewSource(o.seed)), o: o}
	interval := time.Duration(float64(time.Second) / o.rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	// The in-flight cap keeps an overloaded target from accumulating
	// unbounded goroutines; arrivals beyond it are dropped and counted as
	// rejected (the open-loop analogue of a connection refusal).
	sem := make(chan struct{}, 4*o.clients)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-ticker.C:
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					submit(ctx, o, client, base, wl, res)
				}()
			default:
				res.mu.Lock()
				res.rejected++
				res.mu.Unlock()
			}
		}
	}
}

// submit fires one submission (or one batch) and records the outcome.
func submit(ctx context.Context, o options, client *http.Client, base string, wl *workload, res *results) {
	if o.batch > 0 {
		submitBatch(ctx, o, client, base, wl, res)
		return
	}
	spec, tenant := wl.spec()
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a generated spec always marshals
	}
	url := base + "/v1/jobs"
	if o.wait {
		url += "?wait=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			res.mu.Lock()
			res.transport++
			res.mu.Unlock()
		}
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	lat := time.Since(start)
	if err != nil {
		if ctx.Err() == nil {
			res.mu.Lock()
			res.transport++
			res.mu.Unlock()
		}
		return
	}
	collapsed := resp.Header.Get("X-Collapsed") != ""
	res.observe(tenant, lat, resp.StatusCode, collapsed)
	if o.wait && resp.StatusCode == http.StatusOK {
		var doc struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(respBody, &doc) == nil {
			res.checkBody(doc.ID, respBody)
		}
	}
}

func submitBatch(ctx context.Context, o options, client *http.Client, base string, wl *workload, res *results) {
	specs := make([]server.JobSpec, o.batch)
	var tenant string
	for i := range specs {
		specs[i], tenant = wl.spec()
	}
	body, err := json.Marshal(map[string]any{"jobs": specs, "wait": o.wait})
	if err != nil {
		panic(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs:batch", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			res.mu.Lock()
			res.transport++
			res.mu.Unlock()
		}
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	lat := time.Since(start)
	if err != nil || resp.StatusCode != http.StatusOK {
		if ctx.Err() == nil {
			res.mu.Lock()
			res.httpErrors++
			res.mu.Unlock()
		}
		return
	}
	var batch struct {
		Items []struct {
			Code      int             `json:"code"`
			ID        string          `json:"id"`
			Collapsed bool            `json:"collapsed"`
			Job       json.RawMessage `json:"job"`
		} `json:"items"`
	}
	if err := json.Unmarshal(respBody, &batch); err != nil {
		res.mu.Lock()
		res.httpErrors++
		res.mu.Unlock()
		return
	}
	for _, it := range batch.Items {
		res.observe(tenant, lat, it.Code, it.Collapsed)
		if o.wait && it.Code == http.StatusOK && len(it.Job) > 0 {
			res.checkBody(it.ID, it.Job)
		}
	}
}

// Report is the JSON document simdload writes.  Wall-clock figures are environment
// facts, recorded for context; gates should key on the correctness fields
// (errors, violations) and jobs/sec > 0.
type Report struct {
	Name       string    `json:"name"`
	Timestamp  time.Time `json:"timestamp"`
	DurationMS int64     `json:"duration_ms"`

	URL       string  `json:"url,omitempty"`
	Inproc    bool    `json:"inproc"`
	Clients   int     `json:"clients"`
	Rate      float64 `json:"rate,omitempty"`
	Tenants   int     `json:"tenants"`
	Hot       float64 `json:"hot"`
	HotRotate int64   `json:"hot_rotate"`
	Batch     int     `json:"batch,omitempty"`
	Wait      bool    `json:"wait"`
	SpecW     int64   `json:"spec_w"`
	SpecP     int     `json:"spec_p"`
	Scheme    string  `json:"scheme"`

	JobsTotal       int64   `json:"jobs_total"`
	JobsOK          int64   `json:"jobs_ok"`
	JobsRejected    int64   `json:"jobs_rejected"`
	HTTPErrors      int64   `json:"http_errors"`
	TransportErrors int64   `json:"transport_errors"`
	JobsPerSec      float64 `json:"jobs_per_sec"`

	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP90MS  float64 `json:"latency_p90_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
	LatencyMeanMS float64 `json:"latency_mean_ms"`

	CollapsedTotal         int64   `json:"collapsed_total"`
	CollapseRate           float64 `json:"collapse_rate"`
	ByteIdentityViolations int64   `json:"byte_identity_violations"`

	PerTenantOK     map[string]int64 `json:"per_tenant_ok"`
	FairnessSpread  float64          `json:"fairness_spread"`
	DistinctTenants int              `json:"distinct_tenants"`
}

func buildReport(o options, res *results, elapsed time.Duration) Report {
	res.mu.Lock()
	defer res.mu.Unlock()
	r := Report{
		Name:       "simdload",
		Timestamp:  time.Now().UTC(),
		DurationMS: elapsed.Milliseconds(),
		URL:        o.url,
		Inproc:     o.inproc,
		Clients:    o.clients,
		Rate:       o.rate,
		Tenants:    o.tenants,
		Hot:        o.hot,
		HotRotate:  o.hotRotate,
		Batch:      o.batch,
		Wait:       o.wait,
		SpecW:      o.specW,
		SpecP:      o.p,
		Scheme:     o.scheme,

		JobsTotal:       res.ok + res.rejected + res.httpErrors,
		JobsOK:          res.ok,
		JobsRejected:    res.rejected,
		HTTPErrors:      res.httpErrors,
		TransportErrors: res.transport,

		CollapsedTotal:         res.collapsed,
		ByteIdentityViolations: res.violations,
		PerTenantOK:            res.perTenant,
		DistinctTenants:        len(res.perTenant),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		r.JobsPerSec = float64(res.ok) / secs
	}
	if r.JobsTotal > 0 {
		r.CollapseRate = float64(res.collapsed) / float64(r.JobsTotal)
	}
	if n := len(res.latencies); n > 0 {
		sorted := append([]time.Duration(nil), res.latencies...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var sum time.Duration
		for _, d := range sorted {
			sum += d
		}
		pct := func(p float64) float64 {
			i := int(p * float64(n-1))
			return float64(sorted[i]) / float64(time.Millisecond)
		}
		r.LatencyP50MS = pct(0.50)
		r.LatencyP90MS = pct(0.90)
		r.LatencyP99MS = pct(0.99)
		r.LatencyMeanMS = float64(sum) / float64(n) / float64(time.Millisecond)
	}
	// Fairness spread: max/min completed jobs across tenants; 1.0 is a
	// perfectly even rotation, large values mean starvation.
	var min, max int64
	for _, n := range res.perTenant {
		if min == 0 || n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min > 0 {
		r.FairnessSpread = float64(max) / float64(min)
	}
	return r
}

func emit(r Report, out string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "simdload: %d ok, %.1f jobs/sec, p99 %.1fms, collapse rate %.2f, fairness spread %.2f -> %s\n",
		r.JobsOK, r.JobsPerSec, r.LatencyP99MS, r.CollapseRate, r.FairnessSpread, out)
	return nil
}
