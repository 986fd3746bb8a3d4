package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"simdtree/internal/checkpoint"
	"simdtree/internal/metrics"
	"simdtree/internal/puzzle"
	"simdtree/internal/search"
	"simdtree/internal/server"
	"simdtree/internal/simd"
	"simdtree/internal/wire"
)

// spec is the job the tests run: a synthetic tree small enough for a
// unit test and long enough to be interrupted mid-way.
var spec = []string{"-domain", "synthetic", "-w", "6000", "-seed", "3", "-p", "32", "-scheme", "GP-DP"}

func cli(ctx context.Context, t *testing.T, stderr *cancelAt, extra ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	if stderr == nil {
		stderr = &cancelAt{}
	}
	err := run(ctx, append(append([]string(nil), spec...), extra...), &out, stderr)
	return out.String(), err
}

// cancelAt is the run's stderr: it cancels the run when a write contains
// marker, which -progress 1 prints from inside the cycle it names.
type cancelAt struct {
	mu     sync.Mutex
	marker string
	cancel context.CancelFunc
	buf    bytes.Buffer
}

func (c *cancelAt) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancel != nil && bytes.Contains(p, []byte(c.marker)) {
		c.cancel()
	}
	return c.buf.Write(p)
}

// statsLines is the run's summary: the Stats line and the two under it.
func statsLines(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	return strings.Join(lines[len(lines)-3:], "\n")
}

// TestCheckpointResumeAndImport interrupts a -checkpoint run through its
// context, resumes it from the file to the uninterrupted run's Stats,
// refuses a resume under other flags, and has a node finish the same file
// to the same Stats: the CLI's checkpoint is a node's.
func TestCheckpointResumeAndImport(t *testing.T) {
	ctx := context.Background()
	ref, err := cli(ctx, t, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := statsLines(ref)

	path := filepath.Join(t.TempDir(), "run.ckpt")
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := &cancelAt{marker: "  cycle 5:", cancel: cancel}
	out, err := cli(ictx, t, stop, "-checkpoint", path, "-every", "1000", "-progress", "1")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled\n%s", err, out)
	}
	if !strings.Contains(out, "Nexpand=5 ") || !strings.Contains(stop.buf.String(), "wrote checkpoint "+path+" at cycle 5") {
		t.Fatalf("interrupted run did not stop and checkpoint at cycle 5:\n%s%s", out, stop.buf.String())
	}
	frame, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for flag, refusal := range map[string]string{"-scheme=GP-DK": "was taken for", "-lbscale=2": "-lbscale 2 cannot"} {
		if _, err := cli(ctx, t, nil, "-resume", path, flag); err == nil || !strings.Contains(err.Error(), refusal) {
			t.Errorf("-resume with %s: %v, want a refusal naming %q", flag, err, refusal)
		}
	}

	out, err = cli(ctx, t, nil, "-resume", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "resumed from "+path+" at cycle 5") {
		t.Errorf("resumed run did not report its cycle:\n%s", out)
	}
	if got := statsLines(out); got != want {
		t.Errorf("resumed run:\n%s\nwant the uninterrupted run's\n%s", got, want)
	}

	node, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(node.Handler())
	t.Cleanup(func() {
		ts.Close()
		sctx, scancel := context.WithTimeout(ctx, 10*time.Second)
		defer scancel()
		if err := node.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	resp, err := http.Post(ts.URL+"/v1/jobs/import", checkpoint.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID     string         `json:"id"`
		Status server.Status  `json:"status"`
		Error  string         `json:"error"`
		Stats  *metrics.Stats `json:"stats"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("import: status %d, %v", resp.StatusCode, err)
	}
	for deadline := time.Now().Add(10 * time.Second); !job.Status.Terminal(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("imported job still %s", job.Status)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if job.Status != server.StatusDone {
		t.Fatalf("imported job finished %s: %s", job.Status, job.Error)
	}
	if got := job.Stats.String(); got != strings.SplitN(want, "\n", 2)[0] {
		t.Errorf("node finished the CLI's checkpoint with %s, want %s", got, want)
	}
}

// TestRefusals checks the flag combinations -ida cannot honour fail
// before any search, each with its own reason.
func TestRefusals(t *testing.T) {
	puzzleArgs := []string{"-domain", "puzzle", "-scramble", "5", "-steps", "12", "-p", "16", "-ida"}
	bounded := boundedCheckpoint(t)
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"ida on synthetic", "-ida needs -domain puzzle", []string{"-domain", "synthetic", "-w", "1000", "-ida"}},
		{"ida with mem-budget", "-mem-budget is not supported with -ida", append([]string{"-mem-budget", "65536"}, puzzleArgs...)},
		{"ida with bound", "-bound is not supported with -ida", append([]string{"-bound", "3"}, puzzleArgs...)},
		{"ida resumes a bounded run", "holds a single bounded run", append([]string{"-resume", bounded}, puzzleArgs...)},
	} {
		var out, stderr bytes.Buffer
		err := run(context.Background(), tc.args, &out, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want a refusal naming %q", tc.name, err, tc.want)
		}
		if strings.Contains(out.String(), "parallel IDA*") {
			t.Errorf("%s: searched before refusing:\n%s", tc.name, out.String())
		}
	}
}

// boundedCheckpoint writes a checkpoint of a single bounded run under
// the job spec TestRefusals' puzzle flags name, as a node running that
// spec writes one, and returns its path.
func boundedCheckpoint(t *testing.T) string {
	t.Helper()
	spec, err := server.Canonicalize(server.JobSpec{Domain: "puzzle", Scheme: "GP-DK", P: 16, Puzzle: &server.PuzzleSpec{Seed: 5, Steps: 12}}, map[string]bool{"puzzle": true})
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	dom := puzzle.NewDomain(puzzle.Scramble(5, 12))
	bound, _ := search.FinalIterationBound[puzzle.Node](dom)
	sch, err := simd.ParseScheme[puzzle.Node](spec.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	m, err := simd.NewMachine[puzzle.Node](search.NewBounded[puzzle.Node](dom, bound), sch, simd.Options{P: spec.P})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := checkpoint.Encode[puzzle.Node](wire.PuzzleCodec{}, checkpoint.Meta{Domain: spec.Domain, Scheme: spec.Scheme, Topology: spec.Topology, Extra: specJSON}, snap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bounded.ckpt")
	if err := checkpoint.WriteFile(path, b); err != nil {
		t.Fatal(err)
	}
	return path
}
