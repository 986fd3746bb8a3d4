package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"simdtree/internal/server"
)

// TestNodeErrorBodyReadOnce: the coordinator reads a node's refusal in two
// places — callJob for submissions, imports and steals, server.ShardClient.do
// for shard-session calls — and both go through server.ReadError, WriteError's
// inverse.  Whatever a node (or something in front of it) answers, the two
// report the same message, cut at the same bound.
func TestNodeErrorBodyReadOnce(t *testing.T) {
	long := strings.Repeat("x", 4000)
	cases := []struct {
		name, body, want string
	}{
		{"the API's error body", string(server.ErrorBody("queue full for tenant a")), "queue full for tenant a"},
		{"a compact spelling of it", `{"error":"queue full"}`, "queue full"},
		{"not JSON", "<html>502 Bad Gateway</html>", "<html>502 Bad Gateway</html>"},
		{"JSON without an error", `{"status":"weird"}`, `{"status":"weird"}`},
		{"an oversized message", string(server.ErrorBody(long)), long[:512] + "..."},
		{"an oversized non-JSON body", long, long[:512] + "..."},
	}
	var body string
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(body)) //lint:allow errdrop test stub
	}))
	defer stub.Close()
	c, err := New(Config{Nodes: []string{stub.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background()) //lint:allow errdrop no loops are running
	for _, tc := range cases {
		body = tc.body
		if got := server.ReadError([]byte(tc.body)); got != tc.want {
			t.Errorf("%s: ReadError = %q, want %q", tc.name, got, tc.want)
		}
		_, _, err := c.callJob(context.Background(), stub.URL+"/v1/jobs", "application/json", []byte("{}"), nil)
		var re *refusedError
		if !errors.As(err, &re) || re.Code != http.StatusServiceUnavailable || re.Message != tc.want {
			t.Errorf("%s: callJob = %v, want a 503 refusal saying %q", tc.name, err, tc.want)
		}
		_, err = server.OpenShard(context.Background(), c.call, stub.URL, []byte("ckpt"), 0, 4)
		if err == nil || !strings.HasSuffix(err.Error(), "node answered 503: "+tc.want) {
			t.Errorf("%s: OpenShard = %v, want it to end in the node's 503 saying %q", tc.name, err, tc.want)
		}
	}
}
