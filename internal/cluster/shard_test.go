package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"simdtree/internal/server"
)

// fakeShardNode speaks just enough of the session protocol to open a
// session, serve one large export and record what was closed.
type fakeShardNode struct {
	ts     *httptest.Server
	stacks [][]byte

	mu     sync.Mutex
	closed []string
}

func newFakeShardNode(t *testing.T, stacks [][]byte) *fakeShardNode {
	n := &fakeShardNode{stacks: stacks}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/steal/sessions", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]any{"session": "s1", "lo": 0, "hi": len(stacks)})
	})
	mux.HandleFunc("GET /v1/steal/sessions/s1/export", func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, map[string]any{"stacks": n.stacks})
	})
	mux.HandleFunc("DELETE /v1/steal/sessions/{sid}", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		n.closed = append(n.closed, r.PathValue("sid"))
		n.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	n.ts = httptest.NewServer(mux)
	t.Cleanup(n.ts.Close)
	return n
}

func fakeShardFleet(t *testing.T, n *fakeShardNode) *Coordinator {
	c, err := New(Config{Nodes: []string{n.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Shutdown(context.Background()) }) //lint:allow errdrop no loops are running
	return c
}

// TestShardExportReadThroughCall: shard traffic goes through the
// coordinator's one call and its one response bound, the bound of the
// checkpoint the session was opened from.  At the parent the shard client
// read at most 9 MiB of an answer, so 7 MiB of stacks — 9.3 MiB as base64
// — failed as "unexpected end of JSON input".
func TestShardExportReadThroughCall(t *testing.T) {
	stacks := [][]byte{make([]byte, 4<<20), make([]byte, 3<<20)}
	stacks[1][len(stacks[1])-1] = 0xA5
	n := newFakeShardNode(t, stacks)
	c := fakeShardFleet(t, n)
	sh, err := server.OpenShard(context.Background(), c.call, n.ts.URL, nil, 0, len(stacks), false)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sh.Export(context.Background())
	if err != nil {
		t.Fatalf("a 7 MiB export through Coordinator.call: %v", err)
	}
	if len(got) != 2 || len(got[0]) != len(stacks[0]) || len(got[1]) != len(stacks[1]) || got[1][len(got[1])-1] != 0xA5 {
		t.Errorf("export came back as %d stacks", len(got))
	}
}

// TestStealAbortClosesSessionsOnADeadContext: the context a failed steal
// setup hands stealAbort may be the very thing that failed it; the
// sessions already opened are closed on a fresh deadline regardless, or
// each would hold one of its node's 16 slots until that node restarts.
func TestStealAbortClosesSessionsOnADeadContext(t *testing.T) {
	n := newFakeShardNode(t, [][]byte{nil})
	c := fakeShardFleet(t, n)
	sh, err := server.OpenShard(context.Background(), c.call, n.ts.URL, nil, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	cause := errors.New("setup failed")
	err = c.stealAbort(dead, &fleetJob{}, n.ts.URL, nil, []*server.ShardClient{sh}, cause)
	if !errors.Is(err, cause) || !strings.Contains(err.Error(), "re-importing") {
		t.Errorf("stealAbort: %v, want the cause plus the failed re-import", err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.closed) != 1 || n.closed[0] != "s1" {
		t.Errorf("sessions closed on the node: %q, want just s1", n.closed)
	}
}
