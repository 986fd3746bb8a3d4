package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"simdtree/internal/server"
	"simdtree/internal/traffic"
)

// serviceShape is one service workload: the traffic mix a closed-loop
// generator offers a simdserve with default flags.
type serviceShape struct {
	// HotShare of the timed submissions draw one of HotSpecs specs that
	// were submitted in warm-up (so they hit the result cache); the rest
	// are specs never seen before.
	HotShare float64
	HotSpecs int
}

// scaled returns the shape at the given scale; the smoke test's short
// scale keeps the mix and shrinks the hot set it has to pre-submit.
func (s serviceShape) scaled(scale string) serviceShape {
	if scale == "short" {
		s.HotSpecs /= 8
	}
	return s
}

// Every job is the same small synthetic search: a unique job costs the
// engine a few milliseconds, at least 80 % of its latency, and the request
// path stays visible beside it.
const (
	specW      = 30000
	specP      = 64
	specScheme = "GP-S0.90"
	// serviceClients is the closed loop's width: one per core of the
	// 2-core reference host, which is also simdserve's default -workers.
	serviceClients = 2
	serviceTenants = 3
	// A long-lived simdserve has a full job history (-history 4096) and a
	// full result cache (-cache 512); warm-up fills both, because a full
	// history makes every submission evict.  historyFill answers of one
	// cached filler spec fill the history cheaply, then warmJobs draws of
	// the workload's own mix fill the cache.
	historyFill   = 4200
	warmJobs      = 600
	estimateCalls = 200
)

// target is the server under load.
type target struct {
	base    string
	pid     int // 0: in-process, measured through this process
	workers int
	stop    func() error
}

// cpu returns the CPU time of the process doing the serving.
func (t *target) cpu() (time.Duration, error) {
	if t.pid == 0 {
		return selfCPU(), nil
	}
	return procCPU(t.pid)
}

func (t *target) peakRSSMB() (float64, error) {
	if t.pid == 0 {
		return peakRSSMB(os.Getpid())
	}
	return peakRSSMB(t.pid)
}

// buildServer compiles cmd/simdserve into the work directory and returns
// the binary and the time the build took (build.compile_s; never part of
// setup_s).
func buildServer(ctx context.Context, root string) (string, float64, error) {
	bin := filepath.Join(workDir(root), "bin", "simdserve")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/simdserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/simdserve: %w\n%s", err, out)
	}
	return bin, seconds(time.Since(start)), nil
}

// startChild spawns simdserve with default flags on a free loopback port
// and waits until /healthz answers.  simdserve does not report the port it
// bound, so a free one is found by listening and closing; when another
// process takes it in between, the child exits at once and the next attempt
// picks another port.
func startChild(ctx context.Context, bin string, pprof bool) (*target, error) {
	var err error
	for attempt := 0; attempt < 3 && ctx.Err() == nil; attempt++ {
		var t *target
		if t, err = startChildOnce(ctx, bin, pprof); err == nil {
			return t, nil
		}
	}
	return nil, err
}

func startChildOnce(ctx context.Context, bin string, pprof bool) (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	args := []string{"-addr", addr}
	if pprof {
		args = append(args, "-pprof")
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t := &target{base: "http://" + addr, pid: cmd.Process.Pid, workers: 2}
	t.stop = func() error {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			return err
		}
		if err := <-exited; err != nil {
			return fmt.Errorf("simdserve exit: %w\n%s", err, stderr.String())
		}
		return nil
	}
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := probe.Get(t.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) //lint:allow errdrop readiness probe body is irrelevant
			_ = resp.Body.Close()                 //lint:allow errdrop readiness probe body is irrelevant
			if resp.StatusCode == http.StatusOK {
				return t, nil
			}
		}
		select {
		case werr := <-exited:
			return nil, fmt.Errorf("simdserve on %s exited before it was ready: %v\n%s", addr, werr, stderr.String())
		default:
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			_ = t.stop() //lint:allow errdrop the readiness failure below is the error worth reporting
			return nil, fmt.Errorf("simdserve on %s not ready after 15s: %v\n%s", addr, err, stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startInProc serves the same stack simdserve builds, with its default
// configuration, from an httptest listener in this process.
func startInProc() (*target, error) {
	drr := traffic.NewDRR(64, 1)
	svc, err := server.New(server.Config{Scheduler: drr})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(traffic.New(svc, drr, traffic.Config{}).Handler())
	return &target{base: ts.URL, workers: 2, stop: func() error {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return svc.Shutdown(ctx)
	}}, nil
}

// jobDoc is what the generator reads of a job document.
type jobDoc struct {
	Status      string          `json:"status"`
	Stats       json.RawMessage `json:"stats"`
	Efficiency  float64         `json:"efficiency"`
	CacheHit    bool            `json:"cache_hit"`
	SubmittedAt string          `json:"submitted_at"`
	StartedAt   string          `json:"started_at"`
	FinishedAt  string          `json:"finished_at"`
}

// jobSample is one traced request: the client's send and receive instants
// and the server's own timestamps from the job document.
type jobSample struct {
	send, recv                   time.Time
	submitted, started, finished time.Time
}

// phaseStats is what one client observed during one phase.
type phaseStats struct {
	attempted, failed, done int
	latMS                   []float64
	windowTail              []float64 // 99th percentile of each one-second window of the phase
	effSum                  float64
	nodes                   int64
	bytes                   int64
	collapsed               int
	samples                 []jobSample
	why                     []string
}

// fail counts an op as failed and records it at failLatencyMS.
func (p *phaseStats) fail(format string, args ...any) {
	p.failed++
	p.latMS = append(p.latMS, failLatencyMS)
	if len(p.why) < 5 {
		p.why = append(p.why, fmt.Sprintf(format, args...))
	}
}

func (p *phaseStats) merge(o *phaseStats) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.done += o.done
	p.latMS = append(p.latMS, o.latMS...)
	p.effSum += o.effSum
	p.nodes += o.nodes
	p.bytes += o.bytes
	p.collapsed += o.collapsed
	p.samples = append(p.samples, o.samples...)
	p.why = append(p.why, o.why...)
}

// generator is the closed-loop load source: serviceClients goroutines,
// each with one keep-alive connection, its own seeded PRNG and its own
// slice of the unique-spec sequence.
type generator struct {
	t        *target
	shape    serviceShape
	hotBase  uint64
	uniqBase uint64
	clients  []*genClient
	dials    atomic.Int64

	// hotStats holds the stats bytes of each hot spec's first answer; it
	// is written during warm-up only and read-only afterwards.
	hotStats map[uint64][]byte
}

type genClient struct {
	g    *generator
	idx  int
	hc   *http.Client
	rng  *rand.Rand
	next uint64 // position in this client's unique-spec sequence
	sent uint64 // rotates the tenant
}

func newGenerator(t *target, shape serviceShape, stream uint64, seed int64) *generator {
	bases := deriveSeeds(seed, stream, 2+serviceClients)
	g := &generator{
		t: t, shape: shape,
		// Disjoint high bits keep hot and unique seeds apart for any seed.
		hotBase:  bases[0]&(1<<40-1) | 1<<62,
		uniqBase: bases[1]&(1<<40-1) | 1<<61,
		hotStats: map[uint64][]byte{},
	}
	n := serviceClients
	if cpus := runtime.NumCPU(); n > cpus {
		n = cpus
	}
	for i := 0; i < n; i++ {
		dialer := &net.Dialer{}
		tr := &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				g.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
		}
		g.clients = append(g.clients, &genClient{
			g: g, idx: i,
			hc:  &http.Client{Transport: tr},
			rng: rand.New(rand.NewSource(int64(bases[2+i]))),
		})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.hc.CloseIdleConnections()
	}
}

func (c *genClient) uniqueSeed() uint64 {
	s := c.g.uniqBase + uint64(c.idx) + uint64(len(c.g.clients))*c.next
	c.next++
	return s
}

// nextSeed draws the next spec of the workload's mix.
func (c *genClient) nextSeed() (seed uint64, hot bool) {
	if c.g.shape.HotShare > 0 && c.rng.Float64() < c.g.shape.HotShare {
		return c.g.hotBase + uint64(c.rng.Intn(c.g.shape.HotSpecs)), true
	}
	return c.uniqueSeed(), false
}

// specBody is the job spec of the given tree seed.
func specBody(seed uint64) string {
	return fmt.Sprintf(`{"domain":"synthetic","scheme":%q,"p":%d,"synthetic":{"w":%d,"seed":%d}}`,
		specScheme, specP, specW, seed)
}

// submit posts one spec with ?wait=1, reads the terminal document and
// checks it.  learn records a hot spec's stats instead of comparing them.
func (c *genClient) submit(ctx context.Context, seed uint64, hot, learn, traced bool, ps *phaseStats) {
	ps.attempted++
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.g.t.base+"/v1/jobs?wait=1", strings.NewReader(specBody(seed)))
	if err != nil {
		ps.fail("building request: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", "bench-"+strconv.Itoa(int(c.sent%serviceTenants)))
	c.sent++
	send := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		ps.fail("transport: %v", err)
		return
	}
	b, err := io.ReadAll(resp.Body)
	recv := time.Now()
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		ps.fail("reading response: %v", err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		ps.fail("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
		return
	}
	var doc jobDoc
	var stats struct{ W int64 }
	if err := json.Unmarshal(b, &doc); err != nil {
		ps.fail("job document: %v", err)
		return
	}
	if err := json.Unmarshal(doc.Stats, &stats); err != nil {
		ps.fail("job stats: %v", err)
		return
	}
	switch {
	case doc.Status != "done":
		ps.fail("job status %q", doc.Status)
		return
	case stats.W != specW:
		ps.fail("stats.W=%d, spec w=%d", stats.W, specW)
		return
	case hot && learn:
		c.g.hotStats[seed] = doc.Stats
	case hot && !bytes.Equal(c.g.hotStats[seed], doc.Stats):
		ps.fail("hot spec %d: stats bytes differ from its first answer", seed)
		return
	}
	if traced {
		s := jobSample{send: send, recv: recv}
		var e1, e2, e3 error
		s.submitted, e1 = time.Parse(time.RFC3339Nano, doc.SubmittedAt)
		s.started, e2 = time.Parse(time.RFC3339Nano, doc.StartedAt)
		s.finished, e3 = time.Parse(time.RFC3339Nano, doc.FinishedAt)
		if err := errors.Join(e1, e2, e3); err != nil {
			ps.fail("job timestamps: %v", err)
			return
		}
		ps.samples = append(ps.samples, s)
	}
	ps.done++
	ps.latMS = append(ps.latMS, millis(recv.Sub(send)))
	ps.effSum += doc.Efficiency
	ps.bytes += int64(len(b))
	// Only a job that ran the engine expanded nodes: a cache hit and a
	// submission collapsed onto another's run answer with someone else's.
	switch {
	case resp.Header.Get("X-Collapsed") != "":
		ps.collapsed++
	case !doc.CacheHit:
		ps.nodes += stats.W
	}
}

// each runs fn once per client, concurrently, and merges what they saw.
func (g *generator) each(fn func(c *genClient, ps *phaseStats)) *phaseStats {
	parts := make([]phaseStats, len(g.clients))
	var wg sync.WaitGroup
	for i, c := range g.clients {
		wg.Add(1)
		go func(c *genClient, ps *phaseStats) {
			defer wg.Done()
			fn(c, ps)
		}(c, &parts[i])
	}
	wg.Wait()
	total := &phaseStats{}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// warmUp brings connections, the job history, the result cache and the
// server's heap to their steady state: every hot spec once (recording its
// stats), the filler spec until the history is full, then warmJobs draws
// of the workload's mix.
func (g *generator) warmUp(ctx context.Context, scale string) error {
	fill, warm := historyFill, warmJobs
	if scale == "short" {
		// The smoke test checks the plumbing, not the steady state.
		fill, warm = fill/20, warm/20
	}
	// The hot specs go out from one goroutine: hotStats has no lock.
	ps := &phaseStats{}
	for i := 0; i < g.shape.HotSpecs; i++ {
		g.clients[0].submit(ctx, g.hotBase+uint64(i), true, true, false, ps)
	}
	filler := g.hotBase - 1
	ps.merge(g.each(func(c *genClient, ps *phaseStats) {
		for i := 0; i < fill/len(g.clients); i++ {
			c.submit(ctx, filler, false, false, false, ps)
		}
		for i := 0; i < warm/len(g.clients); i++ {
			seed, hot := c.nextSeed()
			c.submit(ctx, seed, hot, false, false, ps)
		}
	}))
	if ps.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d jobs failed: %s", ps.failed, ps.attempted, strings.Join(ps.why, "; "))
	}
	return nil
}

// window is the length of one stretch of closed-loop load.  A phase is a
// run of windows; between two of them the clients pause for one host-speed
// sample (about 20 ms), taken the way the engine workloads take theirs: on an
// otherwise idle host, right after the load.
const window = time.Second

// phase runs the closed loop for d: every client submits, waits for the
// answer and submits again.  A request begun before a window ends is
// allowed to finish.  The returned duration is the time under load.
func (g *generator) phase(ctx context.Context, d time.Duration, traced bool, sp *speedometer) (*phaseStats, time.Duration) {
	total := &phaseStats{}
	var loaded time.Duration
	for loaded < d && ctx.Err() == nil {
		start := time.Now()
		deadline := start.Add(min(window, d-loaded))
		ps := g.each(func(c *genClient, ps *phaseStats) {
			for time.Now().Before(deadline) && ctx.Err() == nil {
				seed, hot := c.nextSeed()
				c.submit(ctx, seed, hot, false, traced, ps)
			}
		})
		loaded += time.Since(start)
		if sp != nil {
			sp.sample()
		}
		if len(ps.latMS) >= 100 {
			total.windowTail = append(total.windowTail, percentile(ps.latMS, serviceTailPercentile))
		}
		total.merge(ps)
	}
	return total, loaded
}

// tail is the median of the windows' 99th percentiles, so that a
// one-second stall of the host moves one window and not the figure.
func (p *phaseStats) tail() float64 {
	if len(p.windowTail) == 0 {
		return percentile(p.latMS, serviceTailPercentile)
	}
	return median(p.windowTail)
}

// serviceRun is a started server with a warmed generator on it.
type serviceRun struct {
	t *target
	g *generator
}

func (r *serviceRun) close() {
	r.g.close()
	_ = r.t.stop() //lint:allow errdrop teardown of a server whose measurements are already taken
}

// newServiceSetUp returns the set-up function of a service workload:
// server start, readiness, generator and warm-up.  The server binary is
// built beforehand, outside any set-up.
func newServiceSetUp(ctx context.Context, root string, stream uint64, shape serviceShape, cfg runConfig, pprof bool) (func() (*serviceRun, error), float64, error) {
	var bin string
	var compileS float64
	if !cfg.inProc() {
		var err error
		if bin, compileS, err = buildServer(ctx, root); err != nil {
			return nil, 0, err
		}
	}
	return func() (*serviceRun, error) {
		var t *target
		var err error
		if cfg.inProc() {
			t, err = startInProc()
		} else {
			t, err = startChild(ctx, bin, pprof)
		}
		if err != nil {
			return nil, err
		}
		r := &serviceRun{t: t, g: newGenerator(t, shape, stream, cfg.Seed)}
		if err := r.g.warmUp(ctx, cfg.Scale); err != nil {
			r.close()
			return nil, err
		}
		return r, nil
	}, compileS, nil
}

// connectionNote checks the generator stayed within one connection per
// client and at most one client per core.
func (g *generator) connectionNote(ps *phaseStats) string {
	n, dials := len(g.clients), int(g.dials.Load())
	if dials > n {
		ps.failed++
		ps.why = append(ps.why, fmt.Sprintf("generator opened %d connections for %d clients", dials, n))
	}
	return fmt.Sprintf("closed loop: %d client goroutines, %d connections, nproc=%d", n, dials, runtime.NumCPU())
}

// runService is the untraced pass of a service workload.
func runService(ctx context.Context, root string, stream uint64, wd *workloadDef, cfg runConfig) (*result, error) {
	setUp, _, err := newServiceSetUp(ctx, root, stream, wd.service.scaled(cfg.Scale), cfg, false)
	if err != nil {
		return nil, err
	}
	sp := &speedometer{}
	run, setupS, err := repeatSetUp(sp, serviceSetups, setUp, (*serviceRun).close)
	if err != nil {
		return nil, err
	}
	defer run.close()

	cpu0, err := run.t.cpu()
	if err != nil {
		return nil, err
	}
	ps, wall := run.g.phase(ctx, cfg.phase(), false, sp)
	cpu1, err := run.t.cpu()
	if err != nil {
		return nil, err
	}
	rss, err := run.t.peakRSSMB()
	if err != nil {
		return nil, err
	}
	note := run.g.connectionNote(ps)
	if ps.done == 0 {
		return nil, fmt.Errorf("no job finished: %s", strings.Join(ps.why, "; "))
	}
	res := newResult(wd.Name, false, ps.attempted, ps.failed)
	res.notes = append(res.notes, note,
		fmt.Sprintf("latency_ms_tail is the %dth percentile: the median over %d one-second windows of each window's", serviceTailPercentile, len(ps.windowTail)))
	res.notes = append(res.notes, ps.why...)
	norm := sp.normalizer(res)
	norm.time("setup_s", setupS, serviceSetups)
	norm.rate("nodes_per_s", float64(ps.nodes)/seconds(wall), int(ps.nodes/specW))
	res.set("sim_efficiency", ps.effSum/float64(ps.done), ps.done)
	norm.rate("jobs_per_s", float64(ps.done)/seconds(wall), ps.done)
	norm.time("latency_ms_p50", median(ps.latMS), ps.done)
	norm.time("latency_ms_tail", ps.tail(), ps.done)
	norm.time("cpu_ms_per_op", millis(cpu1-cpu0)/float64(ps.done), ps.done)
	res.set("peak_rss_mb", rss, 1)
	res.set("ok_share", float64(ps.attempted-ps.failed)/float64(ps.attempted), ps.attempted)
	return res, nil
}

// serverCounters reads the /metrics counters the traced pass deltas.
type serverCounters struct {
	CacheHits       int64 `json:"cache_hits_total"`
	CacheMisses     int64 `json:"cache_misses_total"`
	JobsRejected    int64 `json:"jobs_rejected_total"`
	QuotaRejections int64 `json:"traffic_quota_rejections_total"`
}

func (c *genClient) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.g.t.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return b, err
}

func (c *genClient) counters(ctx context.Context) (serverCounters, error) {
	var sc serverCounters
	b, err := c.get(ctx, "/metrics")
	if err != nil {
		return sc, err
	}
	return sc, json.Unmarshal(b, &sc)
}

// memSnapshot is the part of runtime.MemStats the runtime.* metrics use.
type memSnapshot struct {
	mallocs, totalAlloc, pauseNS uint64
}

// memStats reads the serving process's allocator counters: directly when
// it is this process, else from the MemStats dump that ends
// /debug/pprof/heap?debug=1 (the traced pass starts simdserve with
// -pprof).  That dump has the ring of recent pauses and the GC count but
// no pause total, so the total is estimated as count x mean recent pause.
func (c *genClient) memStats(ctx context.Context) (memSnapshot, error) {
	if c.g.t.pid == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return memSnapshot{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, pauseNS: ms.PauseTotalNs}, nil
	}
	b, err := c.get(ctx, "/debug/pprof/heap?debug=1")
	if err != nil {
		return memSnapshot{}, err
	}
	var snap memSnapshot
	var numGC, ringSum, ringN uint64
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		switch k {
		case "Mallocs":
			snap.mallocs, err = strconv.ParseUint(v, 10, 64)
		case "TotalAlloc":
			snap.totalAlloc, err = strconv.ParseUint(v, 10, 64)
		case "NumGC":
			numGC, err = strconv.ParseUint(v, 10, 64)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(v, "[]")) {
				p, perr := strconv.ParseUint(f, 10, 64)
				if perr == nil && p > 0 {
					ringSum += p
					ringN++
				}
			}
		}
		if err != nil {
			return memSnapshot{}, fmt.Errorf("heap profile %s: %w", k, err)
		}
	}
	if snap.mallocs == 0 {
		return memSnapshot{}, errors.New("heap profile carries no MemStats dump")
	}
	if ringN > 0 {
		snap.pauseNS = numGC * (ringSum / ringN)
	}
	return snap, nil
}

// estimateP50 times n POST /v1/estimate calls.
func (c *genClient) estimateP50(ctx context.Context, n int) (float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.g.t.base+"/v1/estimate", strings.NewReader(specBody(c.uniqueSeed())))
		if err != nil {
			return 0, err
		}
		start := time.Now()
		resp, err := c.hc.Do(req)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("POST /v1/estimate: HTTP %d", resp.StatusCode)
		}
		times = append(times, millis(time.Since(start)))
	}
	return median(times), nil
}

// traceService is the traced pass of a service workload.  The layers are
// seen from outside: the server's own timestamps in each job document,
// /metrics deltas, response sizes and the process counters.
func traceService(ctx context.Context, root string, stream uint64, wd *workloadDef, cfg runConfig) (*result, error) {
	setUp, compileS, err := newServiceSetUp(ctx, root, stream, wd.service.scaled(cfg.Scale), cfg, true)
	if err != nil {
		return nil, err
	}
	run, err := setUp()
	if err != nil {
		return nil, err
	}
	defer run.close()
	c0 := run.g.clients[0]

	// A short untraced phase is the base of trace.overhead_share.
	plain, _ := run.g.phase(ctx, cfg.phase()/4, false, nil)

	before, err := c0.counters(ctx)
	if err != nil {
		return nil, err
	}
	mem0, err := c0.memStats(ctx)
	if err != nil {
		return nil, err
	}
	srv0, err := run.t.cpu()
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	ps, wall := run.g.phase(ctx, cfg.phase(), true, nil)
	gen1 := selfCPU()
	srv1, err := run.t.cpu()
	if err != nil {
		return nil, err
	}
	mem1, err := c0.memStats(ctx)
	if err != nil {
		return nil, err
	}
	after, err := c0.counters(ctx)
	if err != nil {
		return nil, err
	}
	nEst := estimateCalls
	if cfg.Scale == "short" {
		nEst /= 4
	}
	estP50, err := c0.estimateP50(ctx, nEst)
	if err != nil {
		return nil, err
	}
	note := run.g.connectionNote(ps)
	if ps.done == 0 || plain.done == 0 {
		return nil, fmt.Errorf("no job finished: %s", strings.Join(append(ps.why, plain.why...), "; "))
	}

	log := newSpanLog()
	var queue, runMS, path []float64
	var busy time.Duration
	for i, s := range ps.samples {
		queue = append(queue, millis(s.started.Sub(s.submitted)))
		runMS = append(runMS, millis(s.finished.Sub(s.started)))
		path = append(path, millis(s.recv.Sub(s.send)-s.finished.Sub(s.submitted)))
		busy += s.finished.Sub(s.started)
		if i < 2*maxFineSpans {
			id := log.beginOp(i+1, "request", s.send)
			log.coarse("server.queue", s.submitted, s.started)
			log.coarse("server.run", s.started, s.finished)
			log.endOp(id, s.recv)
		} else {
			log.Dropped++
		}
	}
	tracePath, err := log.write(root, cfg, wd.Name)
	if err != nil {
		return nil, err
	}

	n := ps.done
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	res := newResult(wd.Name, true, ps.attempted+plain.attempted, ps.failed+plain.failed)
	res.notes = append(res.notes, note,
		fmt.Sprintf("spans written to %s (%d requests beyond the quota dropped from the file, never from the totals)", tracePath, log.Dropped))
	res.notes = append(res.notes, ps.why...)
	res.set("server.queue_ms_p50", median(queue), n)
	res.set("server.queue_ms_p99", percentile(queue, 99), n)
	res.set("server.run_ms_p50", median(runMS), n)
	res.set("server.run_ms_p99", percentile(runMS, 99), n)
	res.set("server.run_share", median(runMS)/median(ps.latMS), n)
	res.set("server.path_ms_p50", median(path), n)
	res.set("server.path_ms_p99", percentile(path, 99), n)
	res.set("server.cache_hit_share", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	res.set("server.jobs_rejected", float64(after.JobsRejected-before.JobsRejected+after.QuotaRejections-before.QuotaRejections), 1)
	res.set("server.resp_bytes_per_job", float64(ps.bytes)/float64(n), n)
	res.set("server.worker_utilization", seconds(busy)/(float64(run.t.workers)*seconds(wall)), n)
	res.set("traffic.collapse_share", float64(ps.collapsed)/float64(n), n)
	res.set("traffic.estimate_ms_p50", estP50, nEst)
	res.set("runtime.allocs_per_op", float64(mem1.mallocs-mem0.mallocs)/float64(n), n)
	res.set("runtime.alloc_kb_per_op", float64(mem1.totalAlloc-mem0.totalAlloc)/1024/float64(n), n)
	res.set("runtime.gc_pause_ms_per_op", (float64(mem1.pauseNS)-float64(mem0.pauseNS))/1e6/float64(n), n)
	res.set("trace.overhead_share", (median(ps.latMS)-median(plain.latMS))/median(plain.latMS), n)
	if run.t.pid != 0 {
		res.set("build.compile_s", compileS, 1)
		gen, srv := seconds(gen1-gen0), seconds(srv1-srv0)
		res.set("loadgen.cpu_share", ratio(gen, gen+srv), n)
	}
	return res, nil
}
