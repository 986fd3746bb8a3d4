package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"simdtree/internal/checkpoint"
)

// TestCheckpointExportImport is the node side of a fleet failover: a
// running job's spooled checkpoint is exported over HTTP while the job
// is held mid-flight, imported into a second node, and the second node
// completes it to bytes identical to an uninterrupted run — the exact
// handoff internal/cluster performs when a node dies.
func TestCheckpointExportImport(t *testing.T) {
	// Reference: the same job on a spool-less server, uninterrupted.
	_, tsRef := testServer(t, Config{Workers: 1, Runners: map[string]Runner{"spoolsim": spoolRunner(nil)}})
	refJob, _ := postJob(t, tsRef, spoolSpec)
	refFin := waitTerminal(t, tsRef, refJob.ID)
	if refFin.Status != StatusDone {
		t.Fatalf("reference job finished %q: %s", refFin.Status, refFin.Error)
	}

	// Node A: hold the job at cycle 3, three checkpoints in the spool.
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	releaseGate := func() { once.Do(func() { close(release) }) }
	gate := func(_ context.Context, cycle int) {
		if cycle == 3 {
			close(started)
			<-release
		}
	}
	_, tsA := testServer(t, Config{Workers: 1, Spool: t.TempDir(), CheckpointEvery: 1,
		Runners: map[string]Runner{"spoolsim": spoolRunner(gate)}})
	// Registered after testServer so it runs before the server's
	// graceful shutdown — a gate still closed there would deadlock it.
	t.Cleanup(releaseGate)
	sub, code := postJob(t, tsA, spoolSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	<-started

	// Export while running: raw SCKP bytes under the checkpoint media
	// type, cache key echoed in the header, frame valid end to end.
	resp, err := http.Get(tsA.URL + "/v1/jobs/" + sub.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != checkpoint.ContentType {
		t.Errorf("export content type %q, want %q", got, checkpoint.ContentType)
	}
	if got := resp.Header.Get("X-Simdtree-Cache-Key"); got != sub.CacheKey {
		t.Errorf("export cache key header %q, want %q", got, sub.CacheKey)
	}
	frame, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	_, meta, err := checkpoint.ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("exported frame invalid: %v", err)
	}
	var embedded JobSpec
	if err := json.Unmarshal(meta.Extra, &embedded); err != nil || embedded.Domain != "spoolsim" {
		t.Fatalf("embedded spec %q (err %v), want the canonical job spec", meta.Extra, err)
	}
	var m map[string]any
	getJSON(t, tsA, "/metrics", &m)
	if got := m["checkpoints_exported_total"].(float64); got != 1 {
		t.Errorf("checkpoints_exported_total = %v, want 1", got)
	}
	// The frame is in hand; node A's job may finish normally.
	releaseGate()

	// Node B: import the frame; the job resumes from the shipped cycle
	// and completes with the reference bytes, feeding B's cache.
	_, tsB := testServer(t, Config{Workers: 1, Spool: t.TempDir(), CheckpointEvery: 500,
		Runners: map[string]Runner{"spoolsim": spoolRunner(nil)}})
	impResp, err := http.Post(tsB.URL+"/v1/jobs/import", checkpoint.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer impResp.Body.Close()
	if impResp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(impResp.Body)
		t.Fatalf("import: status %d: %s", impResp.StatusCode, body)
	}
	var imp wireJob
	if err := json.NewDecoder(impResp.Body).Decode(&imp); err != nil {
		t.Fatal(err)
	}
	if imp.CacheKey != sub.CacheKey {
		t.Errorf("imported job key %s, want %s (recomputed from the embedded spec)", imp.CacheKey, sub.CacheKey)
	}
	fin := waitTerminal(t, tsB, imp.ID)
	if fin.Status != StatusDone {
		t.Fatalf("imported job finished %q: %s", fin.Status, fin.Error)
	}
	// The gate blocks inside cycle 3's progress callback, before that
	// cycle's checkpoint lands, so the latest exported frame is cycle 2.
	if !fin.Resumed || fin.ResumedFromCycle != 2 {
		t.Errorf("resumed=%t from cycle %d, want resumption from cycle 2", fin.Resumed, fin.ResumedFromCycle)
	}
	if !bytes.Equal(fin.Stats, refFin.Stats) {
		t.Errorf("imported result differs from uninterrupted run:\n got %s\nwant %s", fin.Stats, refFin.Stats)
	}
	hit, code := postJob(t, tsB, spoolSpec)
	if code != http.StatusOK || !hit.CacheHit {
		t.Fatalf("resubmit after import: status %d, cache_hit %t", code, hit.CacheHit)
	}
	getJSON(t, tsB, "/metrics", &m)
	if got := m["jobs_imported_total"].(float64); got != 1 {
		t.Errorf("jobs_imported_total = %v, want 1", got)
	}

	// Re-importing after completion answers from the cache instead of
	// re-simulating.
	again, err := http.Post(tsB.URL+"/v1/jobs/import", checkpoint.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer again.Body.Close()
	var cached wireJob
	if err := json.NewDecoder(again.Body).Decode(&cached); err != nil {
		t.Fatal(err)
	}
	if again.StatusCode != http.StatusOK || !cached.CacheHit {
		t.Errorf("re-import: status %d cache_hit %t, want 200/true", again.StatusCode, cached.CacheHit)
	}
}

// TestCheckpointExportErrors pins the export endpoint's refusals.
func TestCheckpointExportErrors(t *testing.T) {
	// Spool-less server: a job exists but there is nothing to export.
	_, ts := testServer(t, Config{Workers: 1})
	j, _ := postJob(t, ts, queensSpec)
	waitTerminal(t, ts, j.ID)
	for path, want := range map[string]int{
		"/v1/jobs/zzz/checkpoint":          http.StatusNotFound,
		"/v1/jobs/" + j.ID + "/checkpoint": http.StatusConflict,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	// Spooled server, finished job: the spool file is gone, 404.
	_, tsSp := testServer(t, Config{Workers: 1, Spool: t.TempDir(), CheckpointEvery: 1,
		Runners: map[string]Runner{"spoolsim": spoolRunner(nil)}})
	done, _ := postJob(t, tsSp, spoolSpec)
	waitTerminal(t, tsSp, done.ID)
	resp, err := http.Get(tsSp.URL + "/v1/jobs/" + done.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("export of a finished job: status %d, want 404", resp.StatusCode)
	}
}

// TestImportRejectsBadFrames pins the import endpoint's validation: junk
// bytes and a frame whose embedded domain the node does not serve are
// both refused before anything is enqueued.
func TestImportRejectsBadFrames(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1}) // no spoolsim runner here
	for name, body := range map[string][]byte{
		"junk":  []byte("not a checkpoint"),
		"empty": nil,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs/import", checkpoint.ContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("import %s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// A valid frame for a domain this node cannot run: caught at
	// canonicalization, not at enqueue.
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	releaseGate := func() { once.Do(func() { close(release) }) }
	gate := func(_ context.Context, cycle int) {
		if cycle == 2 {
			close(started)
			<-release
		}
	}
	_, tsA := testServer(t, Config{Workers: 1, Spool: t.TempDir(), CheckpointEvery: 1,
		Runners: map[string]Runner{"spoolsim": spoolRunner(gate)}})
	// After the server's cleanup registration, so the gate opens before
	// its graceful shutdown waits on the worker.
	t.Cleanup(releaseGate)
	sub, _ := postJob(t, tsA, spoolSpec)
	<-started
	resp, err := http.Get(tsA.URL + "/v1/jobs/" + sub.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	releaseGate()
	foreign, err := http.Post(ts.URL+"/v1/jobs/import", checkpoint.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	foreign.Body.Close()
	if foreign.StatusCode != http.StatusBadRequest {
		t.Errorf("import of an unservable domain: status %d, want 400", foreign.StatusCode)
	}
}

// TestTraceLimit pins the ?trace_limit= contract: the payload is bounded
// to the first N samples and phases, the totals still report the full
// lengths, and malformed limits are rejected.
func TestTraceLimit(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	traced, _ := postJob(t, ts, `{"domain":"queens","scheme":"GP-DK","p":32,"trace":true,"queens":{"n":7}}`)
	fin := waitTerminal(t, ts, traced.ID)
	if fin.Status != StatusDone {
		t.Fatalf("traced job %q: %s", fin.Status, fin.Error)
	}

	fetch := func(query string) (traceResponse, int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + traced.ID + "/trace" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var tr traceResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
				t.Fatal(err)
			}
		}
		return tr, resp.StatusCode
	}

	full, code := fetch("")
	if code != http.StatusOK || full.Truncated {
		t.Fatalf("unbounded fetch: status %d truncated %t", code, full.Truncated)
	}
	if full.SamplesTotal != len(full.Samples) || full.PhasesTotal != len(full.Phases) {
		t.Fatalf("unbounded totals %d/%d for %d samples, %d phases",
			full.SamplesTotal, full.PhasesTotal, len(full.Samples), len(full.Phases))
	}
	if full.SamplesTotal < 3 {
		t.Fatalf("trace too short to exercise limits: %d samples", full.SamplesTotal)
	}

	cut, code := fetch("?trace_limit=2")
	if code != http.StatusOK {
		t.Fatalf("limited fetch: status %d", code)
	}
	if len(cut.Samples) != 2 || !cut.Truncated {
		t.Errorf("trace_limit=2 kept %d samples, truncated %t", len(cut.Samples), cut.Truncated)
	}
	if cut.SamplesTotal != full.SamplesTotal || cut.PhasesTotal != full.PhasesTotal {
		t.Errorf("limited totals %d/%d, want the full %d/%d",
			cut.SamplesTotal, cut.PhasesTotal, full.SamplesTotal, full.PhasesTotal)
	}
	if len(cut.Samples) > 0 && cut.Samples[0] != full.Samples[0] {
		t.Error("trace_limit did not keep the first samples")
	}

	zero, code := fetch("?trace_limit=0")
	if code != http.StatusOK || len(zero.Samples) != 0 || len(zero.Phases) != 0 || !zero.Truncated {
		t.Errorf("trace_limit=0: status %d, %d samples, %d phases, truncated %t",
			code, len(zero.Samples), len(zero.Phases), zero.Truncated)
	}

	huge, code := fetch("?trace_limit=1000000")
	if code != http.StatusOK || huge.Truncated || len(huge.Samples) != full.SamplesTotal {
		t.Errorf("oversized limit: status %d truncated %t samples %d", code, huge.Truncated, len(huge.Samples))
	}

	for _, bad := range []string{"?trace_limit=abc", "?trace_limit=-1", "?trace_limit=1.5"} {
		if _, code := fetch(bad); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, code)
		}
	}
}

// TestVersionAdvertisesDrainTimeout pins the /version field a fleet
// coordinator reads to know how long a draining node's jobs may keep
// running.
func TestVersionAdvertisesDrainTimeout(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, DrainTimeout: 7 * time.Second})
	var v map[string]string
	getJSON(t, ts, "/version", &v)
	if v["drain_timeout_ms"] != "7000" {
		t.Errorf("drain_timeout_ms = %q, want \"7000\"", v["drain_timeout_ms"])
	}

	_, tsDef := testServer(t, Config{Workers: 1})
	getJSON(t, tsDef, "/version", &v)
	if v["drain_timeout_ms"] != "30000" {
		t.Errorf("default drain_timeout_ms = %q, want \"30000\"", v["drain_timeout_ms"])
	}
}
