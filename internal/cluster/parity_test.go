package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"simdtree/internal/server"
)

// paritySide is one answerer of the parity table: a node on its own, or a
// coordinator over two nodes configured the same way.
type paritySide struct {
	url string
	// posts counts the POST /v1/jobs arrivals at the fleet's nodes (nil
	// for the lone node).
	posts *atomic.Int64
}

// startParityNode boots one production-shaped node (as startTrafficNode
// builds it) with the given memory limit, counting POST /v1/jobs arrivals into posts when it is non-nil.
func startParityNode(t *testing.T, memLimit int64, posts *atomic.Int64) string {
	t.Helper()
	s, err := server.New(server.Config{Workers: 1, MemLimit: memLimit})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if posts != nil && r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			posts.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("node shutdown: %v", err)
		}
	})
	return ts.URL
}

// startParitySides boots a lone node and a two-node fleet, all with the
// same memory limit.
func startParitySides(t *testing.T, memLimit int64) (node, fleet paritySide) {
	t.Helper()
	posts := new(atomic.Int64)
	c, err := New(Config{
		Nodes:          []string{startParityNode(t, memLimit, posts), startParityNode(t, memLimit, posts)},
		OverflowDepth:  1000,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.ProbeOnce(context.Background())
	front := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		front.Close()
		c.Shutdown(context.Background()) //lint:allow errdrop no loops are running
	})
	return paritySide{url: startParityNode(t, memLimit, nil)}, paritySide{url: front.URL, posts: posts}
}

// parityAnswer is what the table compares: the status and a view of the
// body, by default its error string.
type parityAnswer struct {
	code int
	msg  string
}

// wholeBody views a body as itself: the row demands the same bytes.
func wholeBody(raw []byte) string { return string(raw) }

// itemKeys views a batch reply as the key set of each of its items: the
// row demands the same item document, whatever the ids in it.
func itemKeys(raw []byte) string {
	var doc struct {
		Items []map[string]json.RawMessage `json:"items"`
	}
	if json.Unmarshal(raw, &doc) != nil {
		return ""
	}
	var sb strings.Builder
	for _, it := range doc.Items {
		keys := make([]string, 0, len(it))
		for k := range it {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&sb, "%v;", keys)
	}
	return sb.String()
}

func (s paritySide) do(t *testing.T, method, path, body string, header map[string]string, view func([]byte) string) parityAnswer {
	t.Helper()
	req, err := http.NewRequest(method, s.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s %s answered %d with a non-JSON body %q", method, path, resp.StatusCode, raw)
	}
	if view != nil {
		return parityAnswer{resp.StatusCode, view(raw)}
	}
	return parityAnswer{resp.StatusCode, doc.Error}
}

// finished submits spec to the side and waits for the job to finish,
// returning the side's id for it.
func (s paritySide) finished(t *testing.T, spec string) string {
	t.Helper()
	if s.posts == nil {
		j, code := postJSONAs[innerWireJob](t, s.url+"/v1/jobs", spec)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("node submit: %d", code)
		}
		waitNodeTerminal(t, s.url, j.ID)
		return j.ID
	}
	f, code := postJSONAs[fleetWireJob](t, s.url+"/v1/jobs", spec)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("fleet submit: %d", code)
	}
	waitFleetTerminal(t, s.url, f.ID)
	return f.ID
}

// TestNodeFleetParity pins the promise the fleet makes (DESIGN.md §12): a
// client that speaks one simdserve speaks the fleet unchanged, refusals
// included.  Every row sends the same request to a lone node and to a
// coordinator over two such nodes and demands the same status and the
// same error string, or the same view of an answer's body.  Rows with
// wantPosts also count how many nodes the coordinator offered the spec
// to: a refusal it can decide itself reaches none, a node's verdict on
// the spec is asked for once, not shopped around.
func TestNodeFleetParity(t *testing.T) {
	node, fleet := startParitySides(t, 0)
	tightNode, tightFleet := startParitySides(t, 1)

	const (
		small  = `{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":2000,"seed":7}}`
		traced = `{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":2000,"seed":7},"trace":true}`
	)
	var batch65 strings.Builder
	batch65.WriteString(`{"jobs":[`)
	for i := 0; i < 65; i++ {
		if i > 0 {
			batch65.WriteByte(',')
		}
		batch65.WriteString(small)
	}
	batch65.WriteString(`]}`)

	cases := []struct {
		name         string
		node, fleet  paritySide
		method, path string                 // path may hold %s for a finished job's id
		spell        func(id string) string // when set, how path spells that id
		body         string
		header       map[string]string
		jobSpec      string              // when set, submitted and finished first on each side
		view         func([]byte) string // what of the body must match; nil: the error string
		wantCode     int
		wantPosts    int // fleet-side POST /v1/jobs arrivals; -1 unchecked
	}{
		{name: "malformed json", method: "POST", path: "/v1/jobs", body: `{`, wantCode: 400, wantPosts: 0},
		{name: "unknown spec field", method: "POST", path: "/v1/jobs",
			body: `{"domain":"synthetic","scheme":"GP-DK","p":8,"bogus":1}`, wantCode: 400, wantPosts: 0},
		{name: "bad tenant", method: "POST", path: "/v1/jobs", body: small,
			header: map[string]string{server.TenantHeader: "a b"}, wantCode: 400, wantPosts: 0},
		{name: "over the memory limit", node: tightNode, fleet: tightFleet, method: "POST", path: "/v1/jobs",
			body: small, wantCode: 413, wantPosts: 1},
		{name: "empty batch", method: "POST", path: "/v1/jobs:batch", body: `{"jobs":[]}`, wantCode: 400, wantPosts: 0},
		{name: "65-spec batch", method: "POST", path: "/v1/jobs:batch", body: batch65.String(), wantCode: 400, wantPosts: 0},
		{name: "bad Last-Event-ID", method: "GET", path: "/v1/jobs/%s/events", jobSpec: small,
			header: map[string]string{"Last-Event-ID": "x"}, wantCode: 400, wantPosts: -1},
		{name: "negative trace_limit", method: "GET", path: "/v1/jobs/%s/trace?trace_limit=-1", jobSpec: traced,
			wantCode: 400, wantPosts: -1},
		{name: "trace of an untraced job", method: "GET", path: "/v1/jobs/%s/trace", jobSpec: small,
			wantCode: 409, wantPosts: -1},
		{name: "unknown job id", method: "GET", path: "/v1/jobs/nope", wantCode: 404, wantPosts: 0},
		{name: "unknown job id j05", method: "GET", path: "/v1/jobs/j05", wantCode: 404, wantPosts: 0},
		{name: "unknown job id j+5", method: "GET", path: "/v1/jobs/j+5", wantCode: 404, wantPosts: 0},
		{name: "unknown job id j-1", method: "GET", path: "/v1/jobs/j-1", wantCode: 404, wantPosts: 0},
		{name: "unknown job id j0", method: "GET", path: "/v1/jobs/j0", wantCode: 404, wantPosts: 0},
		{name: "unknown job id J5", method: "GET", path: "/v1/jobs/J5", wantCode: 404, wantPosts: 0},
		{name: "unknown job id j", method: "GET", path: "/v1/jobs/j", wantCode: 404, wantPosts: 0},
		{name: "unknown job id past int64", method: "GET", path: "/v1/jobs/j99999999999999999999", wantCode: 404, wantPosts: 0},
		// A finished job's id as the other side spells its ids ("f1" on a
		// node, "j1" on the coordinator), zero-padded, or signed.
		{name: "unknown job id, the other side's prefix", method: "GET", path: "/v1/jobs/%s", jobSpec: small,
			spell: func(id string) string {
				if id[0] == 'j' {
					return "f" + id[1:]
				}
				return "j" + id[1:]
			}, wantCode: 404, wantPosts: -1},
		{name: "unknown job id, zero-padded", method: "GET", path: "/v1/jobs/%s", jobSpec: small,
			spell: func(id string) string { return id[:1] + "0" + id[1:] }, wantCode: 404, wantPosts: -1},
		{name: "unknown job id, signed", method: "GET", path: "/v1/jobs/%s", jobSpec: small,
			spell: func(id string) string { return id[:1] + "+" + id[1:] }, wantCode: 404, wantPosts: -1},
		{name: "estimate", method: "POST", path: "/v1/estimate", body: small, view: wholeBody, wantCode: 200, wantPosts: 0},
		{name: "one-spec batch of a cached spec", method: "POST", path: "/v1/jobs:batch", body: `{"jobs":[` + small + `]}`,
			jobSpec: small, view: itemKeys, wantCode: 200, wantPosts: 1},
		{name: "wait on a batch", method: "POST", path: "/v1/jobs:batch", body: `{"wait":true,"jobs":[` + small + `]}`,
			jobSpec: small, view: itemKeys, wantCode: 200, wantPosts: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.node.url == "" {
				tc.node, tc.fleet = node, fleet
			}
			var got [2]parityAnswer
			for i, side := range []paritySide{tc.node, tc.fleet} {
				path := tc.path
				if tc.jobSpec != "" {
					if id := side.finished(t, tc.jobSpec); strings.Contains(path, "%s") {
						if tc.spell != nil {
							id = tc.spell(id)
						}
						path = fmt.Sprintf(path, id)
					}
				}
				before := int64(0)
				if side.posts != nil {
					before = side.posts.Load()
				}
				got[i] = side.do(t, tc.method, path, tc.body, tc.header, tc.view)
				if side.posts != nil && tc.wantPosts >= 0 {
					if n := side.posts.Load() - before; n != int64(tc.wantPosts) {
						t.Errorf("coordinator offered the spec to %d nodes, want %d", n, tc.wantPosts)
					}
				}
			}
			if got[0].code != tc.wantCode || got[0].msg == "" {
				t.Fatalf("node answered %d %q, want %d with an error string", got[0].code, got[0].msg, tc.wantCode)
			}
			if got[1] != got[0] {
				t.Errorf("fleet answered %d %q, node %d %q", got[1].code, got[1].msg, got[0].code, got[0].msg)
			}
		})
	}
}

// stubNode is a node that answers its health probes and meets every POST
// /v1/jobs with the given refusal.
func stubNode(t *testing.T, posts *atomic.Int64, rf *server.Refusal) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		case "/metrics":
			server.WriteJSON(w, http.StatusOK, nodeMetrics{QueueCapacity: 64})
		case "/version":
			server.WriteJSON(w, http.StatusOK, map[string]string{"drain_timeout_ms": "5000"})
		case "/v1/jobs":
			posts.Add(1)
			rf.Apply(w)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestFleetRefusalPassThrough covers the refusals the one GP retry is
// for: a full (429) or draining (503) node sends the spec to one
// alternate, and when that refuses too the client is told what the node
// said — its status, its words, its Retry-After — not a blanket 503.  A
// batch item carries the same code, words and Retry-After, with or
// without "wait".
func TestFleetRefusalPassThrough(t *testing.T) {
	const spec = `{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":2000,"seed":7}}`
	for _, rf := range []*server.Refusal{
		{Code: http.StatusTooManyRequests, Message: "queue full (64 jobs); retry later", RetryAfter: 7},
		{Code: http.StatusServiceUnavailable, Message: "server is shutting down"},
	} {
		var posts atomic.Int64
		c, err := New(Config{Nodes: []string{stubNode(t, &posts, rf), stubNode(t, &posts, rf)}})
		if err != nil {
			t.Fatal(err)
		}
		c.ProbeOnce(context.Background())
		front := httptest.NewServer(c.Handler())

		resp, err := http.Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		wantRetry := ""
		if rf.RetryAfter > 0 {
			wantRetry = fmt.Sprint(rf.RetryAfter)
		}
		if resp.StatusCode != rf.Code || doc.Error != rf.Message || resp.Header.Get("Retry-After") != wantRetry {
			t.Errorf("fleet answered %d %q Retry-After %q, want the node's %d %q %q",
				resp.StatusCode, doc.Error, resp.Header.Get("Retry-After"), rf.Code, rf.Message, wantRetry)
		}
		if n := posts.Load(); n != 2 {
			t.Errorf("a %d was offered to %d nodes, want the routed node and one alternate", rf.Code, n)
		}

		for _, body := range []string{`{"jobs":[` + spec + `]}`, `{"jobs":[` + spec + `],"wait":true}`} {
			batch, code := postJSONAs[fleetBatchWire](t, front.URL+"/v1/jobs:batch", body)
			if code != http.StatusOK || len(batch.Items) != 1 || batch.Items[0].Code != rf.Code ||
				batch.Items[0].Error != rf.Message || batch.Items[0].RetryAfter != rf.RetryAfter {
				t.Errorf("batch %s answered %d %+v, want one item refused %d %q retry_after %d",
					body, code, batch.Items, rf.Code, rf.Message, rf.RetryAfter)
			}
		}

		front.Close()
		c.Shutdown(context.Background()) //lint:allow errdrop no loops are running
	}
}
