package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestUsageErrors holds the flags the binary refuses to exit 2: a queue
// that could not hold one job, and the flags that no longer exist.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-queue", "0"}, "-queue must be at least 1, got 0"},
		{[]string{"-queue", "-3"}, "-queue must be at least 1, got -3"},
		{[]string{"-fair=false"}, "flag provided but not defined: -fair"},
		{[]string{"-quantum", "2"}, "flag provided but not defined: -quantum"},
		{[]string{"-sse-heartbeat", "1s"}, "flag provided but not defined: -sse-heartbeat"},
	} {
		var stderr bytes.Buffer
		err := run(context.Background(), tc.args, &stderr)
		if !errors.Is(err, errUsage) {
			t.Errorf("%q: err = %v, want a usage error", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr %q lacks %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// syncBuffer is a stderr the test reads while run writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServesThroughTheDRR starts the binary's stack on a free port, and
// checks that the frontend holds the node's queue (only then does /metrics
// carry traffic_tenants), that the queue is -queue jobs long and that the
// stack drains when ctx ends.
func TestServesThroughTheDRR(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stderr := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-queue", "1"}, stderr) }()

	listening := regexp.MustCompile(`listening on (\S+)`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listening.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before listening: %v\n%s", err, stderr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listening line after 10s:\n%s", stderr)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traffic_tenants"]; !ok {
		t.Errorf("/metrics lacks traffic_tenants: the frontend does not hold the node's queue")
	}
	if c := doc["queue_capacity"]; c != 1.0 {
		t.Errorf("queue_capacity %v, want -queue's 1", c)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, stderr)
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Errorf("stderr lacks the drain line:\n%s", stderr)
	}
}
