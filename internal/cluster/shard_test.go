package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"simdtree/internal/server"
)

// fakeShardNode speaks just enough of the session protocol to open a
// session and serve one large export.
type fakeShardNode struct {
	ts     *httptest.Server
	stacks [][]byte
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
	sh, err := server.OpenShard(context.Background(), c.call, n.ts.URL, nil, 0, len(stacks))
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
