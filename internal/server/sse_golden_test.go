package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"simdtree/internal/checkpoint"
)

var updateSSE = flag.Bool("update-sse", false, "rewrite testdata/sse from this build's event streams")

// TestFinishedJobSSEGolden pins the event stream of every kind of finished
// single-node job a node produces: done, cancelled while queued and while
// running, timed out, exhausted, a cache hit, a job resumed from the spool
// with checkpoints on its way, and an imported one.  For each, the body of
// GET /v1/jobs/{id}/events from every Last-Event-ID short of the terminal
// event is byte for byte testdata/sse/<kind>.txt; from the terminal event's
// own id there is nothing left to send.  The runs are held at fixed cycles
// by spoolRunner's gate, so every body is deterministic.
func TestFinishedJobSSEGolden(t *testing.T) {
	const (
		spec16  = `{"domain":"spoolsim","scheme":"GP-DK","p":16}`
		timeout = `{"domain":"spoolsim","scheme":"GP-DK","p":8,"timeout_ms":1000}`
		budget  = `{"domain":"spoolsim","scheme":"GP-DK","p":8,"budget_cycles":40}`
	)
	runner := func(gate func(context.Context, int)) map[string]Runner {
		return map[string]Runner{"spoolsim": spoolRunner(gate)}
	}
	// holdAt returns a gate that stops the run at cycle and waits for
	// release (nil: for the run's own context to end), and a channel
	// closed once the run is held.
	holdAt := func(cycle int, release <-chan struct{}) (func(context.Context, int), <-chan struct{}) {
		held := make(chan struct{})
		var once sync.Once
		return func(ctx context.Context, c int) {
			if c != cycle {
				return
			}
			once.Do(func() { close(held) })
			select {
			case <-ctx.Done():
			case <-release:
			}
		}, held
	}
	finished := map[string]struct {
		s  *Server
		id string
	}{}
	add := func(kind string, s *Server, ts *httptest.Server, id string, want Status) {
		t.Helper()
		if fin := waitTerminal(t, ts, id); fin.Status != want {
			t.Fatalf("%s: job %s finished %s (%s), want %s", kind, id, fin.Status, fin.Error, want)
		}
		finished[kind] = struct {
			s  *Server
			id string
		}{s, id}
	}

	// done, then a cache hit on it.
	s, ts := testServer(t, Config{Workers: 1, ProgressEvery: 500, Runners: runner(nil)})
	sub, _ := postJob(t, ts, spoolSpec)
	add("done", s, ts, sub.ID, StatusDone)
	hit, code := postJob(t, ts, spoolSpec)
	if code != http.StatusOK || !hit.CacheHit {
		t.Fatalf("resubmit: status %d, cache_hit %t", code, hit.CacheHit)
	}
	add("cache-hit", s, ts, hit.ID, StatusDone)

	// exhausted: the cycle budget ends the run.
	s, ts = testServer(t, Config{Workers: 1, ProgressEvery: 10, Runners: runner(nil)})
	sub, _ = postJob(t, ts, budget)
	add("exhausted", s, ts, sub.ID, StatusExhausted)

	// cancelled while queued, behind a run held at cycle 1; then that
	// run, cancelled while held at cycle 3.
	release := make(chan struct{})
	gate1, held1 := holdAt(1, release)
	s, ts = testServer(t, Config{Workers: 1, ProgressEvery: 2, Runners: runner(gate1)})
	first, _ := postJob(t, ts, spoolSpec)
	<-held1
	queued, code := postJob(t, ts, spec16)
	if code != http.StatusAccepted {
		t.Fatalf("second submission: status %d, want 202", code)
	}
	deleteJob(t, ts, queued.ID)
	close(release)
	add("cancelled-queued", s, ts, queued.ID, StatusCancelled)
	if fin := waitTerminal(t, ts, first.ID); fin.Status != StatusDone {
		t.Fatalf("the held run finished %s", fin.Status)
	}
	gate3, held3 := holdAt(3, nil)
	s, ts = testServer(t, Config{Workers: 1, ProgressEvery: 2, Runners: runner(gate3)})
	sub, _ = postJob(t, ts, spoolSpec)
	<-held3
	deleteJob(t, ts, sub.ID)
	add("cancelled-running", s, ts, sub.ID, StatusCancelled)

	// timeout: held at cycle 3 until the deadline ends the run.
	gate3, _ = holdAt(3, nil)
	s, ts = testServer(t, Config{Workers: 1, ProgressEvery: 2, Runners: runner(gate3)})
	sub, _ = postJob(t, ts, timeout)
	add("timeout", s, ts, sub.ID, StatusTimeout)

	// spool-resumed: a node killed with its run held at cycle 3 leaves
	// that cycle's checkpoint; the next node on the spool resumes it.
	dir := t.TempDir()
	gate3, held3 = holdAt(3, nil)
	a, err := New(Config{Workers: 1, Spool: dir, CheckpointEvery: 1, Runners: runner(gate3)})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())
	postJob(t, tsA, spoolSpec)
	<-held3
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := a.Shutdown(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown: %v", err)
	}
	tsA.Close()
	s, ts = testServer(t, Config{Workers: 1, Spool: dir, CheckpointEvery: 500, ProgressEvery: 1000, Runners: runner(nil)})
	resumed := s.store.All()
	if len(resumed) != 1 {
		t.Fatalf("the restarted node holds %d jobs, want the resumed one", len(resumed))
	}
	add("spool-resumed", s, ts, resumed[0].id, StatusDone)

	// imported: the checkpoint a held run exported, on another node.
	release = make(chan struct{})
	gate3, held3 = holdAt(3, release)
	_, tsA = testServer(t, Config{Workers: 1, Spool: t.TempDir(), CheckpointEvery: 1, Runners: runner(gate3)})
	t.Cleanup(func() { close(release) }) // before tsA's shutdown, which waits for the held run
	sub, _ = postJob(t, tsA, spoolSpec)
	<-held3
	resp, err := http.Get(tsA.URL + "/v1/jobs/" + sub.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	frame, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d, %v", resp.StatusCode, err)
	}
	s, ts = testServer(t, Config{Workers: 1, Spool: t.TempDir(), CheckpointEvery: 500, ProgressEvery: 1000, Runners: runner(nil)})
	resp, err = http.Post(ts.URL+"/v1/jobs/import", checkpoint.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	var imp wireJob
	err = json.NewDecoder(resp.Body).Decode(&imp)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("import: status %d, %v", resp.StatusCode, err)
	}
	add("imported", s, ts, imp.ID, StatusDone)

	for _, kind := range []string{"done", "cancelled-queued", "cancelled-running", "timeout", "exhausted", "cache-hit", "spool-resumed", "imported"} {
		f := finished[kind]
		j, _ := f.s.store.Get(f.id)
		all, _ := j.eventsSince(0)
		last := all[len(all)-1].Seq
		var got strings.Builder
		for after := int64(0); after < last; after++ {
			fmt.Fprintf(&got, "-- after %d --\n%s", after, eventsBody(t, f.s, f.id, after))
		}
		if rest, _ := j.eventsSince(last); len(rest) != 0 {
			t.Errorf("%s: events after the terminal one: %+v", kind, rest)
		}
		path := filepath.Join("testdata", "sse", kind+".txt")
		if *updateSSE {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("%s: event streams differ from %s:\n got:\n%s\nwant:\n%s", kind, path, got.String(), want)
		}
	}
}

// eventsBody is the body of GET /v1/jobs/{id}/events on s with
// Last-Event-ID after (none when after is 0), served in process.
func eventsBody(t *testing.T, s *Server, id string, after int64) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if after > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(after))
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("events of %s after %d: status %d: %s", id, after, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// deleteJob cancels job id through the node's API.
func deleteJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s: status %d", id, resp.StatusCode)
	}
}
