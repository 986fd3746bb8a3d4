package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// spillSpoolSpec is spoolSpec with a memory budget of roughly three
// dozen nodes across eight PEs — tight enough that the run spills cold
// stack levels from the first few cycles on.
const spillSpoolSpec = `{"domain":"spoolsim","scheme":"GP-DK","p":8,"mem_budget":264}`

// TestSpillServerEquivalence runs the same job with and without a memory
// budget through the full server stack and requires byte-identical result
// statistics — the end-to-end form of the engine's residency contract —
// and that the budgeted run actually generated spill traffic.
func TestSpillServerEquivalence(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, Runners: map[string]Runner{"spoolsim": spoolRunner(nil)}})

	free, code := postJob(t, ts, spoolSpec)
	if code != http.StatusAccepted && code != http.StatusOK { // 200: a free worker already finished it
		t.Fatalf("unbounded submit: %d", code)
	}
	freeFin := waitTerminal(t, ts, free.ID)
	if freeFin.Status != StatusDone {
		t.Fatalf("unbounded job finished %q: %s", freeFin.Status, freeFin.Error)
	}

	tight, code := postJob(t, ts, spillSpoolSpec)
	if code != http.StatusAccepted && code != http.StatusOK { // 200: a free worker already finished it
		t.Fatalf("budgeted submit: %d", code)
	}
	if tight.CacheKey == free.CacheKey {
		t.Fatal("mem_budget did not enter the cache key; distinct configurations would collide")
	}
	tightFin := waitTerminal(t, ts, tight.ID)
	if tightFin.Status != StatusDone {
		t.Fatalf("budgeted job finished %q: %s", tightFin.Status, tightFin.Error)
	}
	if !bytes.Equal(tightFin.Stats, freeFin.Stats) {
		t.Errorf("budgeted result differs from unbounded run:\n got %s\nwant %s", tightFin.Stats, freeFin.Stats)
	}
	if got := s.ctr.spillEvictions.Load(); got == 0 {
		t.Error("budgeted job recorded no spill evictions; the budget never engaged")
	}
	if got := s.ctr.spillFaults.Load(); got == 0 {
		t.Error("budgeted job recorded no spill faults; the restore path went unexercised")
	}

	var m map[string]any
	getJSON(t, ts, "/metrics", &m)
	if got := m["spill_evictions_total"].(float64); got == 0 {
		t.Error("metrics endpoint does not report spill_evictions_total")
	}
}

// TestSpillSpoolKillAndRestart is the crash-recovery path for a
// memory-bounded job: killed mid-run it leaves a spooled checkpoint AND
// spilled segment files; the restarted server must treat the segments as
// stale cache (the checkpoint reabsorbed every level before being
// written), wipe them, resume from the spool, and finish with result
// bytes identical to an uninterrupted run.
func TestSpillSpoolKillAndRestart(t *testing.T) {
	dir := t.TempDir()

	// Reference: the same budgeted job on a spool-less server.
	_, tsRef := testServer(t, Config{Workers: 1, Runners: map[string]Runner{"spoolsim": spoolRunner(nil)}})
	refJob, code := postJob(t, tsRef, spillSpoolSpec)
	if code != http.StatusAccepted && code != http.StatusOK { // 200: a free worker already finished it
		t.Fatalf("reference submit: %d", code)
	}
	refFin := waitTerminal(t, tsRef, refJob.ID)
	if refFin.Status != StatusDone {
		t.Fatalf("reference job finished %q: %s", refFin.Status, refFin.Error)
	}

	// Process one: checkpoint every 2 cycles and block inside cycle 20's
	// progress callback.  That point is after cycle 19's eviction sweep
	// and before the next boundary's checkpoint could reabsorb those
	// segments (checkpoints land on even cycle counts, i.e. at the top of
	// odd-cycle iterations), so segment files are deterministically on
	// disk while the job hangs.
	started := make(chan struct{})
	var once sync.Once
	gate := func(ctx context.Context, cycle int) {
		if cycle == 20 {
			once.Do(func() { close(started) })
			<-ctx.Done()
		}
	}
	a, err := New(Config{Workers: 1, Spool: dir, CheckpointEvery: 2,
		Runners: map[string]Runner{"spoolsim": spoolRunner(gate)}})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	sub, code := postJob(t, tsA, spillSpoolSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	<-started
	spillDir := filepath.Join(dir, sub.CacheKey+".spill")
	segs, err := filepath.Glob(filepath.Join(spillDir, "*.sspl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatalf("no segment files in %s while the budgeted job hangs mid-run", spillDir)
	}
	// Capture the live segments: the in-process kill below still runs the
	// runner's deferred cleanup (unlike a real SIGKILL), so to exercise
	// the crash contract the files are re-planted before the restart.
	saved := make(map[string][]byte, len(segs))
	for _, p := range segs {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		saved[filepath.Base(p)] = b
	}

	// The gate holds until the run's own context is done, so the machine
	// stops at the very next boundary.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := a.Shutdown(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown: %v", err)
	}
	ckptPath := filepath.Join(dir, sub.CacheKey+spoolExt)
	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("shutdown removed the spooled checkpoint: %v", err)
	}
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range saved {
		if err := os.WriteFile(filepath.Join(spillDir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Process two: the rescan resumes the job from the checkpoint; the
	// stale segments describe stacks the snapshot already reabsorbed and
	// must be wiped, not restored.
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
	for _, j := range b.store.All() {
		resumedID = j.id
	}
	if resumedID == "" {
		t.Fatal("restarted server found no spooled job")
	}
	fin := waitTerminal(t, tsB, resumedID)
	if fin.Status != StatusDone {
		t.Fatalf("resumed job finished %q: %s", fin.Status, fin.Error)
	}
	// The kill path spools a final snapshot at the cancellation boundary —
	// cycle 20, where the gate held the machine — so resumption continues
	// from there, not from the last periodic checkpoint.
	if !fin.Resumed || fin.ResumedFromCycle != 20 {
		t.Errorf("resumed=%t from cycle %d, want resumption from cycle 20 (the cancellation-boundary checkpoint)",
			fin.Resumed, fin.ResumedFromCycle)
	}
	if !bytes.Equal(fin.Stats, refFin.Stats) {
		t.Errorf("resumed result differs from uninterrupted run:\n got %s\nwant %s", fin.Stats, refFin.Stats)
	}
	if _, err := os.Stat(spillDir); !os.IsNotExist(err) {
		t.Errorf("completed job left its spill directory behind (stat err %v)", err)
	}
	if _, err := os.Stat(ckptPath); !os.IsNotExist(err) {
		t.Errorf("completed job left its spool file behind (stat err %v)", err)
	}
}
