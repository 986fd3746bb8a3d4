package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"simdtree/internal/checkpoint"
	"simdtree/internal/simd"
	"simdtree/internal/steal"
	"simdtree/internal/trace"
)

// shardSpec is the job the shard-protocol tests distribute: small enough
// that a whole run is a few hundred session calls, and an early donation
// of it ships cross-shard frames under every scheme used here.
func shardSpec(scheme string, w int) string {
	return fmt.Sprintf(`{"domain":"synthetic","scheme":%q,"p":8,"synthetic":{"w":%d,"seed":3}}`, scheme, w)
}

// donatedJob is a job stopped at a cycle boundary the way a steal yields
// one: the exact-prefix checkpoint plus everything its driver derives from
// it.
type donatedJob struct {
	ckpt []byte
	meta checkpoint.Meta
	raw  *checkpoint.RawSnapshot
	spec JobSpec
	opts simd.Options
	cfg  steal.Config
}

// donate runs spec through the node's own runner, cancels it after the
// given cycle, and returns the final checkpoint the runner spools.
func donate(t *testing.T, spec string, cycle int) donatedJob {
	t.Helper()
	var js JobSpec
	if err := json.Unmarshal([]byte(spec), &js); err != nil {
		t.Fatal(err)
	}
	canonical, err := Canonicalize(js, testDomains())
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(canonical)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := (&Server{}).buildOptions(canonical)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1
	runOpts := opts
	runOpts.Trace = &trace.Trace{}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runOpts.ProgressEvery = 1
	runOpts.Progress = func(pi simd.ProgressInfo) {
		if pi.Stats.Cycles >= cycle {
			cancel()
		}
	}
	d := donatedJob{spec: canonical, opts: opts}
	_, err = builtins[canonical.Domain].run(ctx, canonical, runOpts, RunEnv{
		CheckpointEvery: 1 << 30, // periodic effectively off; final cancel checkpoint only
		SpecJSON:        specJSON,
		Write:           func(b []byte) error { d.ckpt = b; return nil },
	})
	if !errors.Is(err, context.Canceled) || d.ckpt == nil {
		t.Fatalf("interrupting the run at cycle %d: err %v, checkpoint %d bytes", cycle, err, len(d.ckpt))
	}
	if d.meta, d.raw, err = checkpoint.DecodeRaw(d.ckpt); err != nil {
		t.Fatal(err)
	}
	parts, err := simd.ParseSchemeParts(canonical.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	d.cfg = steal.Config{
		Key: CacheKey(canonical), Meta: d.meta, Scheme: parts, Costs: opts.Costs,
		Topology: opts.Topology, P: canonical.P,
	}
	return d
}

// snapshot decodes the donation afresh: a driver appends to the trace of
// the snapshot it is seeded from, so two runs must not share one.
func (d donatedJob) snapshot(t *testing.T) *checkpoint.RawSnapshot {
	t.Helper()
	_, raw, err := checkpoint.DecodeRaw(d.ckpt)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// ranges tiles [0, p) into n contiguous shard ranges, as distribute does.
func ranges(p, n int) [][2]int {
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{i * p / n, (i + 1) * p / n}
	}
	return out
}

// httpCall is the NodeCall a node drives its peers through, over a plain
// http.Client.
var httpCall = caller(http.DefaultClient)

// openShards opens one session per node over the donation.
func openShards(t *testing.T, d donatedJob, nodes []*httptest.Server) []*ShardClient {
	t.Helper()
	var out []*ShardClient
	for i, r := range ranges(d.spec.P, len(nodes)) {
		c, err := OpenShard(context.Background(), httpCall, nodes[i].URL, d.ckpt, r[0], r[1])
		if err != nil {
			t.Fatalf("opening shard %d: %v", i, err)
		}
		out = append(out, c)
	}
	return out
}

func closeShards(t *testing.T, shards []*ShardClient) {
	t.Helper()
	for i, c := range shards {
		if err := c.Close(context.Background()); err != nil {
			t.Errorf("closing shard %d: %v", i, err)
		}
	}
}

func asShards[T steal.Shard](in []T) []steal.Shard {
	out := make([]steal.Shard, len(in))
	for i, s := range in {
		out[i] = s
	}
	return out
}

// runOutcome is everything a finished distributed run is compared on.
type runOutcome struct {
	res   steal.Result
	final []byte // the encoded Assemble of the finished run
}

func driveShards(t *testing.T, d donatedJob, shards []steal.Shard) runOutcome {
	t.Helper()
	drv, err := steal.NewDriver(d.cfg, d.snapshot(t), shards)
	if err != nil {
		t.Fatal(err)
	}
	res, err := drv.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := drv.Assemble(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	final, err := checkpoint.EncodeRaw(d.meta, snap)
	if err != nil {
		t.Fatal(err)
	}
	return runOutcome{res, final}
}

// sessionRequest issues one raw request against a session route.
func sessionRequest(t *testing.T, ts *httptest.Server, method, rest, body string) (int, string) {
	t.Helper()
	code, resp, err := httpCall(context.Background(), method, ts.URL+sessionsPath+rest, "application/json", []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return code, string(resp)
}

// TestShardProtocolConformance ranges over shardOps — so a new op cannot
// be missed — and pins what every session call owes its caller: 404 for an
// unknown session, 405 for the wrong method, and for an op with a JSON
// request a 400 for an empty or unknown-field body that leaves the Host
// exactly as it was.
func TestShardProtocolConformance(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	d := donate(t, shardSpec("GP-DK", 4000), 3)
	c, err := OpenShard(context.Background(), httpCall, ts.URL, d.ckpt, 0, d.spec.P)
	if err != nil {
		t.Fatal(err)
	}
	defer closeShards(t, []*ShardClient{c})
	session := "/" + c.Session()
	export := func() string {
		code, body := sessionRequest(t, ts, http.MethodGet, session+"/export", "")
		if code != http.StatusOK {
			t.Fatalf("export: %d %s", code, body)
		}
		return body
	}
	before := export()

	if len(shardOps) != 8 {
		t.Errorf("shardOps has %d ops, steal.Host has 8 calls", len(shardOps))
	}
	for _, op := range shardOps {
		method, name := op.route()
		if code, body := sessionRequest(t, ts, method, "/nope/"+name, "{}"); code != http.StatusNotFound {
			t.Errorf("%s %s on an unknown session: %d %s, want 404", method, name, code, body)
		}
		wrong := http.MethodGet
		if method == http.MethodGet {
			wrong = http.MethodPost
		}
		if code, body := sessionRequest(t, ts, wrong, session+"/"+name, "{}"); code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %d %s, want 405", wrong, name, code, body)
		}
		// The request type is the third parameter of the op's host func; a
		// struct with fields is a JSON document.
		req := reflect.ValueOf(op).FieldByName("host").Type().In(2)
		if req.Kind() != reflect.Struct || req.NumField() == 0 {
			continue
		}
		for _, body := range []string{"", `{"zz_unknown": 1}`, `{`} {
			code, resp := sessionRequest(t, ts, method, session+"/"+name, body)
			if code != http.StatusBadRequest || !strings.Contains(resp, "bad "+name+" request") {
				t.Errorf("%s %s with body %q: %d %s, want 400 bad %s request", method, name, body, code, resp, name)
			}
		}
	}
	if after := export(); after != before {
		t.Error("refused requests changed the shard's stacks")
	}
}

// TestTransferRefusalsLeaveStacksAlone is the endpoint face of the
// idle-receiver rule.  At the parent an empty transfer body decoded as the
// zero request, a self-transfer of PE 0, answered 200 {"moved": 1} and
// moved PE 0's bottom node to its top — a silently different schedule.
func TestTransferRefusalsLeaveStacksAlone(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	d := donate(t, shardSpec("GP-DK", 4000), 3)
	c, err := OpenShard(context.Background(), httpCall, ts.URL, d.ckpt, 0, d.spec.P)
	if err != nil {
		t.Fatal(err)
	}
	defer closeShards(t, []*ShardClient{c})
	busy, _, err := c.Flags(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pe := 0
	for pe < len(busy) && !busy[pe] {
		pe++
	}
	if pe == len(busy) {
		t.Fatal("no PE holds a splittable stack; the self-transfer would have nothing to reorder")
	}
	self := fmt.Sprintf(`{"from":%d,"to":%d`, pe, pe)
	before, _, err := c.Export(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{"", self + "}", self + `,"extra":1}`} {
		code, resp := sessionRequest(t, ts, http.MethodPost, "/"+c.Session()+"/transfer", body)
		if code != http.StatusBadRequest {
			t.Errorf("transfer with body %q: %d %s, want 400", body, code, resp)
		}
	}
	if _, err := c.Transfer(context.Background(), pe, pe); err == nil || !strings.Contains(err.Error(), "not idle") {
		t.Errorf("ShardClient.Transfer(%d, %d): %v, want the idle-receiver refusal", pe, pe, err)
	}
	after, _, err := c.Export(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Error("refused transfers reordered the shard's stacks")
	}
}

// TestShardClientMatchesLocalShard drives the same donation twice — over
// two LocalShards, and over two ShardClients against two in-process nodes
// — and requires Stats, trace and the final assembled checkpoint to be
// identical: the HTTP half of the protocol adds nothing and loses nothing.
func TestShardClientMatchesLocalShard(t *testing.T) {
	for _, scheme := range []string{"GP-S0.90", "nGP-DK"} {
		t.Run(scheme, func(t *testing.T) {
			d := donate(t, shardSpec(scheme, 4000), 1)
			want := driveShards(t, d, localShards(t, d, 2))
			if want.res.Donations == 0 {
				t.Fatal("the reference run shipped no cross-shard donation; the comparison would not exercise split/absorb")
			}

			_, tsA := testServer(t, Config{Workers: 1, Spool: t.TempDir()})
			_, tsB := testServer(t, Config{Workers: 1})
			remote := openShards(t, d, []*httptest.Server{tsA, tsB})
			defer closeShards(t, remote)
			got := driveShards(t, d, asShards(remote))

			if got.res.Stats != want.res.Stats {
				t.Errorf("stats differ\n got %+v\nwant %+v", got.res.Stats, want.res.Stats)
			}
			if got.res.Donations != want.res.Donations || got.res.LocalTransfers != want.res.LocalTransfers {
				t.Errorf("moved %d frames / %d local, want %d / %d", got.res.Donations, got.res.LocalTransfers, want.res.Donations, want.res.LocalTransfers)
			}
			if !reflect.DeepEqual(got.res.Trace, want.res.Trace) {
				t.Error("traces differ")
			}
			if !bytes.Equal(got.final, want.final) {
				t.Error("final assembled checkpoints differ")
			}
		})
	}
}

// localShards hosts the donation's shards in process, tiled as distribute
// tiles them.
func localShards(t *testing.T, d donatedJob, n int) []steal.Shard {
	t.Helper()
	var out []steal.Shard
	for _, r := range ranges(d.spec.P, n) {
		h, err := builtins[d.spec.Domain].host(d.spec, d.opts, r[0], r[1], d.raw)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, steal.LocalShard{H: h})
	}
	return out
}

// TestShardClientStopTimeCheckpoint cancels a distributed run a few cycles
// after the donation and requires the checkpoint of its exact prefix —
// over ShardClients byte-identical to the one over LocalShards — and that
// resuming it reproduces the uninterrupted run's Stats and trace.  The
// second case cancels from another goroutine while a step is in flight:
// the step still completes and the run stops at the next boundary.
func TestShardClientStopTimeCheckpoint(t *testing.T) {
	d := donate(t, shardSpec("GP-S0.90", 4000), 1)
	want := driveShards(t, d, localShards(t, d, 2))

	// stopped runs the donation over shards until cancel is called,
	// through onProgress or otherwise, and returns its stop-time
	// checkpoint.
	stopped := func(t *testing.T, ctx context.Context, shards []steal.Shard, onProgress func(cycles int)) []byte {
		t.Helper()
		var last []byte
		cfg := d.cfg
		cfg.CheckpointEvery = 1 << 30 // periodic effectively off: the stop-time checkpoint only
		cfg.OnCheckpoint = func(_ context.Context, b []byte) error { last = b; return nil }
		cfg.ProgressEvery = 1
		cfg.Progress = func(pi simd.ProgressInfo, _ []int) { onProgress(pi.Stats.Cycles) }
		drv, err := steal.NewDriver(cfg, d.snapshot(t), shards)
		if err != nil {
			t.Fatal(err)
		}
		res, err := drv.Run(ctx)
		if !errors.Is(err, context.Canceled) || last == nil {
			t.Fatalf("cancelled run: %v, checkpoint %d bytes", err, len(last))
		}
		if _, raw, err := checkpoint.DecodeRaw(last); err != nil || raw.Cycle != res.Stats.Cycles {
			t.Fatalf("stop-time checkpoint of a %d-cycle prefix: %v", res.Stats.Cycles, err)
		}
		return last
	}
	// resumed drives a stop-time checkpoint to the end over LocalShards.
	resumed := func(t *testing.T, ckpt []byte) {
		t.Helper()
		r := d
		r.ckpt = ckpt
		var err error
		if r.meta, r.raw, err = checkpoint.DecodeRaw(ckpt); err != nil {
			t.Fatal(err)
		}
		got := driveShards(t, r, localShards(t, r, 2))
		if got.res.Stats != want.res.Stats || !reflect.DeepEqual(got.res.Trace, want.res.Trace) {
			t.Errorf("resumed run differs from the uninterrupted one\n got %+v\nwant %+v", got.res.Stats, want.res.Stats)
		}
	}
	nodes := func(t *testing.T) []*httptest.Server {
		_, tsA := testServer(t, Config{Workers: 1})
		_, tsB := testServer(t, Config{Workers: 1})
		return []*httptest.Server{tsA, tsB}
	}

	t.Run("progress", func(t *testing.T) {
		run := func(shards []steal.Shard) []byte {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return stopped(t, ctx, shards, func(cycles int) {
				if cycles >= 4 {
					cancel()
				}
			})
		}
		local := run(localShards(t, d, 2))
		remote := openShards(t, d, nodes(t))
		defer closeShards(t, remote)
		if got := run(asShards(remote)); !bytes.Equal(got, local) {
			t.Errorf("remote stop-time checkpoint (%d bytes) differs from the local one (%d bytes)", len(got), len(local))
		}
		resumed(t, local)
	})

	t.Run("step in flight", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		inFlight, cancelled := make(chan struct{}), make(chan struct{})
		go func() {
			<-inFlight
			cancel()
			close(cancelled)
		}()
		var mu sync.Mutex
		steps := 0
		call := func(ctx context.Context, method, url, contentType string, body []byte) (int, []byte, error) {
			if strings.HasSuffix(url, "/step") {
				mu.Lock()
				steps++
				hold := steps == 5
				mu.Unlock()
				if hold {
					close(inFlight)
					<-cancelled
				}
			}
			return httpCall(ctx, method, url, contentType, body)
		}
		var remote []*ShardClient
		ns := nodes(t)
		for i, r := range ranges(d.spec.P, 2) {
			c, err := OpenShard(context.Background(), call, ns[i].URL, d.ckpt, r[0], r[1])
			if err != nil {
				t.Fatalf("opening shard %d: %v", i, err)
			}
			remote = append(remote, c)
		}
		defer closeShards(t, remote)
		resumed(t, stopped(t, ctx, asShards(remote), func(int) {}))
	})
}

// TestOpenShardClosesAMismatchedSession: a node that opens a session but
// answers a different range has still spent one of its session slots;
// OpenShard gives it back before reporting the mismatch.
func TestOpenShardClosesAMismatchedSession(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	d := donate(t, shardSpec("GP-DK", 4000), 1)
	lying := func(ctx context.Context, method, url, contentType string, body []byte) (int, []byte, error) {
		code, resp, err := httpCall(ctx, method, url, contentType, body)
		if method == http.MethodPost && strings.Contains(url, "?") {
			resp = bytes.Replace(resp, []byte(`"hi": 4`), []byte(`"hi": 5`), 1)
		}
		return code, resp, err
	}
	if _, err := OpenShard(context.Background(), lying, ts.URL, d.ckpt, 0, 4); err == nil || !strings.Contains(err.Error(), "want [0, 4)") {
		t.Fatalf("OpenShard over a mismatched answer: %v", err)
	}
	if n := s.steal.active(); n != 0 {
		t.Errorf("%d session(s) left open on the node after the refused open", n)
	}
}

// faultMode is one way the k-th call of a run goes wrong.
type faultMode int

const (
	transportError faultMode = iota // the request never reaches the node
	serverError                     // the node answers 500 without acting
	responseLost                    // the node acts, the answer is dropped
)

func (m faultMode) String() string {
	return [...]string{"transport error", "500", "response lost"}[m]
}

// faultyCall wraps a NodeCall and fails exactly its k-th call; with k < 0
// it only records.  Calls of one cycle's fan-out are concurrent, so which
// shard's request is the k-th varies from run to run: failed names it.
type faultyCall struct {
	inner NodeCall
	k     int
	mode  faultMode

	mu     sync.Mutex
	n      int
	ops    []string // op of every call, in arrival order
	failed string   // URL of the failed call
}

func (f *faultyCall) call(ctx context.Context, method, url, contentType string, body []byte) (int, []byte, error) {
	f.mu.Lock()
	i := f.n
	f.n++
	f.ops = append(f.ops, path.Base(strings.SplitN(url, "?", 2)[0]))
	if i == f.k {
		f.failed = url
	}
	f.mu.Unlock()
	if i != f.k {
		return f.inner(ctx, method, url, contentType, body)
	}
	switch f.mode {
	case transportError:
		return 0, nil, errors.New("injected: connection refused")
	case serverError:
		return http.StatusInternalServerError, []byte(`{"error": "injected"}`), nil
	default:
		_, _, _ = f.inner(ctx, method, url, contentType, body) //lint:allow errdrop the answer is what this mode loses
		return 0, nil, errors.New("injected: connection reset before the response")
	}
}

// TestShardFaultSweep is ROADMAP item 2's first instalment over the one
// node→peer seam: the k-th session call of a short two-shard run
// fails three ways, k swept over the run.  For every k the driver returns,
// within the deadline, an error naming the shard and the op — or finishes
// with the fault-free Stats; and after Close neither node holds a session.
//
// The synthetic job exercises every call but merge (its domain is
// stateless); the puzzle job's IDA* bound accumulator adds merge.
func TestShardFaultSweep(t *testing.T) {
	all := []string{"status", "step", "flags", "transfer", "split", "absorb", "export"}
	t.Run("synthetic", func(t *testing.T) { sweepFaults(t, shardSpec("GP-DK", 300), all) })
	t.Run("puzzle", func(t *testing.T) {
		sweepFaults(t, `{"domain":"puzzle","scheme":"GP-DK","p":8,"puzzle":{"seed":5,"steps":12}}`, []string{"step", "export", "merge"})
	})
}

func sweepFaults(t *testing.T, spec string, mustCall []string) {
	d := donate(t, spec, 1)
	d.cfg.CheckpointEvery = 4
	sA, tsA := testServer(t, Config{Workers: 1, Spool: t.TempDir()})
	sB, tsB := testServer(t, Config{Workers: 1})
	nodes := []*httptest.Server{tsA, tsB}

	// run drives a fresh pair of sessions through fc and closes them.
	run := func(fc *faultyCall) (steal.Result, error) {
		shards := openShards(t, d, nodes)
		for _, c := range shards {
			c.node = fc.call
		}
		cfg := d.cfg
		cfg.OnCheckpoint = func(context.Context, []byte) error { return nil }
		drv, err := steal.NewDriver(cfg, d.snapshot(t), asShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		res, err := drv.Run(ctx)
		for _, c := range shards {
			c.node = httpCall // setup and teardown are not part of the sweep
		}
		closeShards(t, shards)
		return res, err
	}

	clean := &faultyCall{inner: httpCall, k: -1}
	ref, err := run(clean)
	if err != nil {
		t.Fatal(err)
	}

	// Every call of a short run; of a longer one the first and last call
	// of each op plus a seeded sample.
	total := len(clean.ops)
	first, last := map[string]int{}, map[string]int{}
	for i, op := range clean.ops {
		if _, ok := first[op]; !ok {
			first[op] = i
		}
		last[op] = i
	}
	for _, op := range mustCall {
		if _, ok := first[op]; !ok {
			t.Fatalf("the fault-free run never called %s", op)
		}
	}
	ks := map[int]bool{}
	for op := range first {
		ks[first[op]], ks[last[op]] = true, true
	}
	rng := rand.New(rand.NewSource(19))
	for want := min(total, 64); len(ks) < want; {
		ks[rng.Intn(total)] = true
	}
	t.Logf("fault-free run: %d calls, the last of each op %v", total, last)
	for k := range ks {
		for _, mode := range []faultMode{transportError, serverError, responseLost} {
			fc := &faultyCall{inner: httpCall, k: k, mode: mode}
			res, err := run(fc)
			switch {
			case fc.failed == "":
				t.Errorf("k=%d %s: the run made fewer than %d calls (err %v)", k, mode, k+1, err)
			case err == nil:
				// Legitimate only if the lost call changed nothing.
				if res.Stats != ref.Stats {
					t.Errorf("k=%d %s: %s failed, the run reported success with different stats %+v", k, mode, fc.failed, res.Stats)
				}
			default:
				shard := 0
				if strings.HasPrefix(fc.failed, tsB.URL) {
					shard = 1
				}
				op := path.Base(strings.SplitN(fc.failed, "?", 2)[0])
				if want := fmt.Sprintf("shard %d %s", shard, op); !strings.Contains(err.Error(), want) {
					t.Errorf("k=%d %s: error %q does not name %q", k, mode, err, want)
				}
			}
			if a, b := sA.steal.active(), sB.steal.active(); a != 0 || b != 0 {
				t.Fatalf("k=%d %s: sessions left open after Close: %d and %d", k, mode, a, b)
			}
		}
	}
	var m struct {
		Active int `json:"steal_sessions_active"`
	}
	for _, ts := range nodes {
		if getJSON(t, ts, "/metrics", &m); m.Active != 0 {
			t.Errorf("%s reports steal_sessions_active = %d after the sweep", ts.URL, m.Active)
		}
	}
}

// TestSpecOfBindsSpecToFrameP: a checkpoint whose embedded spec names a
// different machine size than the frame holds stacks for is refused by
// everything that accepts a checkpoint — session open always did; import
// and the spool rescan used to queue it and fail the job at restore.
func TestSpecOfBindsSpecToFrameP(t *testing.T) {
	d := donate(t, shardSpec("GP-DK", 4000), 1)
	wide := d.spec
	wide.P = 16
	meta := d.meta
	var err error
	if meta.Extra, err = json.Marshal(wide); err != nil {
		t.Fatal(err)
	}
	frame, err := checkpoint.EncodeRaw(meta, d.raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := specOf(meta, testDomains()); err == nil || !strings.Contains(err.Error(), "spec has P=16, checkpoint has P=8") {
		t.Fatalf("specOf: %v", err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, CacheKey(wide)+spoolExt), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, Config{Workers: 1, Spool: dir})
	if jobs := s.store.All(); len(jobs) != 0 {
		t.Errorf("rescan queued %d job(s) from the mismatched checkpoint", len(jobs))
	}
	code, body, err := httpCall(context.Background(), http.MethodPost, ts.URL+"/v1/jobs/import", checkpoint.ContentType, frame)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusBadRequest || !strings.Contains(string(body), "spec has P=16") {
		t.Errorf("import: %d %s, want 400 naming the P mismatch", code, body)
	}
	if _, err := OpenShard(context.Background(), httpCall, ts.URL, frame, 0, 4); err == nil || !strings.Contains(err.Error(), "spec has P=16") {
		t.Errorf("open: %v, want the same refusal", err)
	}
}
