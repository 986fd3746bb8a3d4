package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"simdtree/internal/checkpoint"
	"simdtree/internal/metrics"
	"simdtree/internal/puzzle"
	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/synthetic"
	"simdtree/internal/wire"
)

// spoolRunner executes a fixed synthetic instance through the real
// checkpointable path, so the spool tests exercise exactly the plumbing
// the built-in domains use.  gate, when non-nil, is called at every
// cycle boundary with the run's own context and may block on it — that
// is how the kill tests hold a job mid-flight deterministically and let
// it go the instant the run is cancelled.  The gate wraps the server's
// progress sink, which still fires at its own cadence, counted in cycles
// since it last fired.
func spoolRunner(gate func(ctx context.Context, cycle int)) Runner {
	return func(ctx context.Context, spec JobSpec, opts simd.Options, env RunEnv) (metrics.Stats, error) {
		if gate != nil {
			sink, every, last := opts.Progress, opts.ProgressEvery, 0
			opts.ProgressEvery = 1
			opts.Progress = func(pi simd.ProgressInfo) {
				gate(ctx, pi.Stats.Cycles)
				if sink != nil && every > 0 && pi.Stats.Cycles-last >= every {
					last = pi.Stats.Cycles
					sink(pi)
				}
			}
		}
		return runMachine[synthetic.Node](ctx, synthetic.New(20000, 7), wire.SyntheticCodec{}, spec, opts, env)
	}
}

const spoolSpec = `{"domain":"spoolsim","scheme":"GP-DK","p":8}`

// TestSpoolKillAndRestart is the crash-recovery acceptance path: a
// server with a spool is killed (shutdown with an expired grace period,
// the in-process equivalent of SIGKILL after SIGTERM) while a job is
// mid-run; a second server on the same spool directory finds the
// checkpoint at startup, resumes the job, and completes it with result
// bytes identical to an uninterrupted run — feeding the cache as if the
// first process had never died.
func TestSpoolKillAndRestart(t *testing.T) {
	dir := t.TempDir()

	// Reference: the same job on a spool-less server, uninterrupted.
	_, tsRef := testServer(t, Config{Workers: 1, Runners: map[string]Runner{"spoolsim": spoolRunner(nil)}})
	refJob, code := postJob(t, tsRef, spoolSpec)
	if code != http.StatusAccepted && code != http.StatusOK { // 200: a free worker already finished it
		t.Fatalf("reference submit: %d", code)
	}
	refFin := waitTerminal(t, tsRef, refJob.ID)
	if refFin.Status != StatusDone {
		t.Fatalf("reference job finished %q: %s", refFin.Status, refFin.Error)
	}

	// Process one: block the run at cycle 3, after three checkpoints hit
	// the spool, then shut down with the grace period already expired.
	// The gate holds until the run's own context is done, so the machine
	// observes the cancellation at the very next boundary.  (Waiting on
	// the job's context is not enough: a parent context closes Done
	// before it cancels its children, so the run's could still be live
	// for one more cycle.)
	started := make(chan struct{})
	var once sync.Once
	gate := func(ctx context.Context, cycle int) {
		if cycle == 3 {
			once.Do(func() { close(started) })
			<-ctx.Done()
		}
	}
	a, err := New(Config{Workers: 1, Spool: dir, CheckpointEvery: 1,
		Runners: map[string]Runner{"spoolsim": spoolRunner(gate)}})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	sub, code := postJob(t, tsA, spoolSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	<-started
	ckptPath := filepath.Join(dir, sub.CacheKey+spoolExt)
	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("no spooled checkpoint while running: %v", err)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := a.Shutdown(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown: %v", err)
	}
	if fin := getJob(t, tsA, sub.ID); fin.Status != StatusCancelled {
		t.Fatalf("killed job status %q, want cancelled", fin.Status)
	}
	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("shutdown removed the spooled checkpoint: %v", err)
	}

	// Process two: same spool, fresh server.  New must rescan the
	// directory and re-queue the interrupted job without any client
	// involvement.
	b, err := New(Config{Workers: 1, Spool: dir, CheckpointEvery: 500,
		Runners: map[string]Runner{"spoolsim": spoolRunner(nil)}})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(b.Handler())
	t.Cleanup(func() {
		tsB.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := b.Shutdown(ctx); err != nil {
			t.Errorf("restart shutdown: %v", err)
		}
	})
	resumedID := ""
	for _, j := range b.store.all() {
		resumedID = j.id
	}
	if resumedID == "" {
		t.Fatal("restarted server found no spooled job")
	}
	fin := waitTerminal(t, tsB, resumedID)
	if fin.Status != StatusDone {
		t.Fatalf("resumed job finished %q: %s", fin.Status, fin.Error)
	}
	if !fin.Resumed || fin.ResumedFromCycle != 3 {
		t.Errorf("resumed=%t from cycle %d, want resumption from cycle 3", fin.Resumed, fin.ResumedFromCycle)
	}
	if fin.CacheKey != sub.CacheKey {
		t.Errorf("resumed job key %s, want %s", fin.CacheKey, sub.CacheKey)
	}
	if !bytes.Equal(fin.Stats, refFin.Stats) {
		t.Errorf("resumed result differs from uninterrupted run:\n got %s\nwant %s", fin.Stats, refFin.Stats)
	}
	if _, err := os.Stat(ckptPath); !os.IsNotExist(err) {
		t.Errorf("completed job left its spool file behind (stat err %v)", err)
	}

	// The resumed completion fed the cache: resubmitting the spec must
	// hit, with the same bytes again.
	hit, code := postJob(t, tsB, spoolSpec)
	if code != http.StatusOK || !hit.CacheHit {
		t.Fatalf("resubmit after resume: status %d, cache_hit %t", code, hit.CacheHit)
	}
	if !bytes.Equal(hit.Stats, refFin.Stats) {
		t.Errorf("cached result differs from uninterrupted run:\n got %s\nwant %s", hit.Stats, refFin.Stats)
	}

	// S2 observability: the restarted server accounts for the resumption
	// and advertises the checkpoint format version it speaks.
	var m map[string]any
	getJSON(t, tsB, "/metrics", &m)
	if got := m["jobs_resumed_total"].(float64); got != 1 {
		t.Errorf("jobs_resumed_total = %v, want 1", got)
	}
	if got := m["checkpoints_written_total"].(float64); got < 1 {
		t.Errorf("checkpoints_written_total = %v, want >= 1", got)
	}
	var v map[string]string
	getJSON(t, tsB, "/version", &v)
	if v["checkpoint_format"] != strconv.Itoa(checkpoint.Version) {
		t.Errorf("checkpoint_format = %q, want %q", v["checkpoint_format"], strconv.Itoa(checkpoint.Version))
	}
}

// TestSpoolRescanRejectsForeignFiles pins the rescan's integrity rules: a
// renamed checkpoint (filename no longer the spec's cache key) and plain
// junk are both skipped, not resurrected and not deleted.
func TestSpoolRescanRejectsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk"+spoolExt), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Build a real checkpoint under the wrong name by running a job to a
	// shutdown kill, then renaming its spool file.
	started := make(chan struct{})
	var once sync.Once
	gate := func(ctx context.Context, cycle int) {
		if cycle == 2 {
			once.Do(func() { close(started) })
			<-ctx.Done()
		}
	}
	a, err := New(Config{Workers: 1, Spool: dir, CheckpointEvery: 1,
		Runners: map[string]Runner{"spoolsim": spoolRunner(gate)}})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	sub, _ := postJob(t, tsA, spoolSpec)
	<-started
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := a.Shutdown(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown: %v", err)
	}
	if err := os.Rename(filepath.Join(dir, sub.CacheKey+spoolExt), filepath.Join(dir, "renamed"+spoolExt)); err != nil {
		t.Fatal(err)
	}

	b, err := New(Config{Workers: 1, Spool: dir,
		Runners: map[string]Runner{"spoolsim": spoolRunner(nil)}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := b.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if jobs := b.store.all(); len(jobs) != 0 {
		t.Fatalf("rescan resurrected %d job(s) from invalid files", len(jobs))
	}
	for _, name := range []string{"junk" + spoolExt, "renamed" + spoolExt} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("rescan deleted %s: %v", name, err)
		}
	}
}

// TestSpoolRefusesIDAStarCheckpoint: an IDA* checkpoint carries its
// puzzle spec, so spooled under that spec's key it passes rescan.  The
// node refuses to resume it: an IDA* run's ledger is not the spec's run.  Without the refusal an early iteration's
// file fails only on the bounded domain's state check, and a final
// iteration's is resumed and cached.
func TestSpoolRefusesIDAStarCheckpoint(t *testing.T) {
	canonical, err := Canonicalize(JobSpec{Domain: "puzzle", Scheme: "GP-DK", P: 8, Puzzle: &PuzzleSpec{Seed: 1, Steps: 30}}, testDomains())
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
	opts.CheckpointEvery = 1
	sch, err := simd.ParseScheme[puzzle.Node](canonical.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	meta := checkpoint.Meta{Domain: canonical.Domain, Scheme: canonical.Scheme, Topology: canonical.Topology, Extra: specJSON}
	// A snapshot of the final iteration: its bound is the spec's, so the
	// bounded domain's own state check cannot tell it from a plain run's.
	dom := puzzle.NewDomain(puzzle.Scramble(1, 30))
	final, _ := search.FinalIterationBound[puzzle.Node](dom)
	var ckpt []byte
	taken := errors.New("checkpoint taken")
	_, err = simd.RunIDAStar[puzzle.Node](context.Background(), dom, sch, opts, 0, nil,
		func(snap *simd.Snapshot[puzzle.Node]) error {
			if snap.IDA.Bound != final {
				return nil
			}
			b, err := checkpoint.Encode[puzzle.Node](wire.PuzzleCodec{}, meta, snap)
			if err != nil {
				return err
			}
			ckpt = b
			return taken
		})
	if !errors.Is(err, taken) {
		t.Fatalf("IDA* run: %v", err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, CacheKey(canonical)+spoolExt), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, Config{Workers: 1, Spool: dir})
	jobs := s.store.all()
	if len(jobs) != 1 {
		t.Fatalf("rescan found %d jobs, want the IDA* checkpoint's", len(jobs))
	}
	fin := waitTerminal(t, ts, jobs[0].ID())
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, "IDA* run") {
		t.Errorf("resumed IDA* checkpoint finished %s (%q), want failed with the IDA* refusal", fin.Status, fin.Error)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
