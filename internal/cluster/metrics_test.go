package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"simdtree/internal/server"
)

// metricsSpec is the one job each /metrics document below is read after.
const metricsSpec = `{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":500,"seed":7}}`

// Every /metrics document's keys, as served before the counters moved into
// one Metrics() map per backend.  A key dropped or renamed fails here.
var (
	nodeKeys = []string{
		"busy_workers", "cache_entries", "cache_hits_total", "cache_misses_total",
		"checkpoints_exported_total", "checkpoints_written_total", "domain_panics_total",
		"jobs_cancelled_total", "jobs_done_total", "jobs_exhausted_total",
		"jobs_failed_total", "jobs_imported_total", "jobs_queued_total", "jobs_rejected_total",
		"jobs_resumed_total", "jobs_running", "jobs_timeout_total", "queue_capacity",
		"queue_depth", "scheme_latency_ms", "spill_bytes_read_total", "spill_bytes_written_total",
		"spill_evictions_total", "spill_faults_total", "steal_donations_total", "steal_frames_absorbed_total",
		"steal_frames_split_total", "steal_local_transfers_total", "steal_runs_completed_total",
		"steal_runs_failed_total", "steal_sessions_active", "steal_sessions_opened_total",
		"traffic_quota_rejections_total", "traffic_sse_resumes_total", "traffic_sse_streams_total",
		"uptime_seconds", "worker_utilization", "workers",
	}
	frontendKeys = []string{
		"traffic_batch_jobs_total", "traffic_batches_total", "traffic_collapsed_total",
		"traffic_estimates_total", "traffic_flights_open", "traffic_flights_total",
		"traffic_mem_rejections_total",
	}
	fleetKeys = []string{
		"checkpoints_pulled_total", "jobs_failed_over_resumed_total", "jobs_failed_over_total",
		"jobs_overflow_routed_total", "jobs_routed_total", "jobs_stolen_total", "nodes_ejected_total",
		"nodes_healthy", "nodes_readmitted_total", "nodes_total", "probe_failures_total",
		"probes_total", "uptime_seconds",
	}
)

// TestMetricsKeySets pins the key sets of the two /metrics documents — a
// node, which serves through its frontend and its one queue, and the
// fleet — each read after one completed job, and checks every *_total
// value, nested ones included, is a JSON integer.
func TestMetricsKeySets(t *testing.T) {
	s, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	node := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		node.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	sub, _ := postJSONAs[innerWireJob](t, node.URL+"/v1/jobs", metricsSpec)
	waitNodeTerminal(t, node.URL, sub.ID)

	c, err := New(Config{Nodes: []string{startTrafficNode(t, server.Config{Workers: 1}, nil)}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background()) //lint:allow errdrop no loops are running
	c.ProbeOnce(context.Background())
	fleet := httptest.NewServer(c.Handler())
	defer fleet.Close()
	fj, _ := postJSONAs[fleetWireJob](t, fleet.URL+"/v1/jobs", metricsSpec)
	waitFleetTerminal(t, fleet.URL, fj.ID)

	for _, tc := range []struct {
		name, url string
		want      []string
	}{
		{"node", node.URL, sortedKeys(nodeKeys, frontendKeys, []string{"traffic_tenants"})},
		{"fleet", fleet.URL, sortedKeys(fleetKeys, frontendKeys)},
	} {
		doc := metricsDoc(t, tc.url)
		keys := make([]string, 0, len(doc))
		for k := range doc {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !slices.Equal(keys, tc.want) {
			t.Errorf("%s /metrics keys\n got %q\nwant %q", tc.name, keys, tc.want)
		}
		checkTotalsIntegral(t, tc.name, doc)
	}
}

// sortedKeys is the sorted union of key lists.
func sortedKeys(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Strings(out)
	return out
}

// metricsDoc GETs url's /metrics document, numbers kept as written.
func metricsDoc(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics: status %d", url, resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// checkTotalsIntegral fails every *_total value in doc, at any depth, that
// is not a JSON integer.
func checkTotalsIntegral(t *testing.T, name string, doc map[string]any) {
	t.Helper()
	for k, v := range doc {
		if sub, ok := v.(map[string]any); ok {
			checkTotalsIntegral(t, name, sub)
			continue
		}
		if !strings.HasSuffix(k, "_total") {
			continue
		}
		n, ok := v.(json.Number)
		if _, err := n.Int64(); !ok || err != nil {
			t.Errorf("%s: %s = %v, want a JSON integer", name, k, v)
		}
	}
}
