package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// TestNodeMemoryBounded serves unique tiny jobs through the node stack
// simdmark's service workloads run (a DRR-scheduled server behind the
// frontend, over HTTP) with a 16-job history and an 8-entry cache, and
// requires the live heap to grow by less than 1 MB from 2 000 to 12 000
// jobs: what a node keeps is bounded by its history and cache, not by
// the jobs it has served.  It runs once with three rotating tenants and
// once with a fresh X-Tenant per job.
func TestNodeMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 24 000 jobs")
	}
	const (
		warm, total = 2000, 12000
		maxGrowth   = 1 << 20
	)
	for _, tc := range []struct {
		name   string
		tenant func(i int) string
	}{
		{"rotating", func(i int) string { return fmt.Sprintf("t%d", i%3) }},
		{"fresh", func(i int) string { return fmt.Sprintf("label-%d", i) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := startNode(t, Config{JobHistory: 16, CacheSize: 8})
			client := ts.Client()
			serve := func(from, to int) {
				for i := from; i < to; i++ {
					spec := fmt.Sprintf(`{"domain":"synthetic","scheme":"GP-S0.90","p":4,"synthetic":{"w":20,"seed":%d}}`, i+1)
					req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs?wait=1", strings.NewReader(spec))
					if err != nil {
						t.Fatal(err)
					}
					req.Header.Set(TenantHeader, tc.tenant(i))
					resp, err := client.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("job %d: status %d, %v: %s", i, resp.StatusCode, err, body)
					}
				}
			}
			serve(0, warm)
			before := liveHeap()
			serve(warm, total)
			after := liveHeap()
			t.Logf("live heap %.2f MB after %d jobs, %.2f MB after %d", float64(before)/1e6, warm, float64(after)/1e6, total)
			if after > before+maxGrowth {
				t.Errorf("live heap grew %d bytes over %d jobs (%.0f B a job), want under %d",
					after-before, total-warm, float64(after-before)/(total-warm), maxGrowth)
			}
		})
	}
}

// liveHeap is the heap in use after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
