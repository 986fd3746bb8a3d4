package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// loadReply is one submission's outcome in TestLoadMix.
type loadReply struct {
	tenant    string
	code      int
	collapsed bool
	body      []byte
	doc       struct {
		ID     string          `json:"id"`
		Status Status          `json:"status"`
		Stats  json.RawMessage `json:"stats"`
	}
}

// TestLoadMix runs a fixed count of concurrent, multi-tenant ?wait=1
// submissions of real engine runs through a DRR-scheduled server behind
// the frontend.  Each round all clients submit that round's hot spec
// together, so most of them collapse onto one flight or hit its cached
// result, and then each submits one unique spec.  It checks that every
// submission completes with a 200, that every body carrying one job id is
// byte-identical, that a round's hot submissions carry identical stats,
// that traffic_collapsed_total counts exactly the X-Collapsed responses,
// that some submission did collapse, and that every tenant was served.
func TestLoadMix(t *testing.T) {
	const (
		clients = 8
		tenants = 3
		rounds  = 40
		hotSeed = 1 << 62 // hot seeds count up from here, unique ones from 1
	)
	_, ts := startNode(t, Config{Workers: 2, QueueSize: 1024, CacheSize: 4096})
	client := ts.Client()
	submit := func(seed uint64, tenant string, out *loadReply) {
		out.tenant = tenant
		spec := fmt.Sprintf(`{"domain":"synthetic","scheme":"GP-S0.90","p":64,"synthetic":{"w":20000,"seed":%d}}`, seed)
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs?wait=1", strings.NewReader(spec))
		if err != nil {
			t.Error(err)
			return
		}
		req.Header.Set(TenantHeader, tenant)
		resp, err := client.Do(req)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return
		}
		defer resp.Body.Close()
		if out.body, err = io.ReadAll(resp.Body); err != nil {
			t.Errorf("seed %d: reading body: %v", seed, err)
			return
		}
		out.code = resp.StatusCode
		out.collapsed = resp.Header.Get(collapsedHeader) != ""
		if err := json.Unmarshal(out.body, &out.doc); err != nil {
			t.Errorf("seed %d: %v in %q", seed, err, out.body)
		}
	}

	// hot[r][c] and unique[r][c] are client c's replies in round r.
	var hot, unique [rounds][clients]loadReply
	for r := range rounds {
		release := make(chan struct{})
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tenant := fmt.Sprintf("load-%d", c%tenants)
				<-release
				submit(hotSeed+uint64(r), tenant, &hot[r][c])
				submit(uint64(r*clients+c+1), tenant, &unique[r][c])
			}()
		}
		close(release)
		wg.Wait()
	}
	if t.Failed() {
		t.FailNow()
	}

	bodies := make(map[string][]byte)
	served := make(map[string]int)
	collapsed := 0
	check := func(rp *loadReply) {
		if rp.code != http.StatusOK || rp.doc.Status != StatusDone || len(rp.doc.Stats) == 0 {
			t.Errorf("tenant %s: %d, status %q, stats %s", rp.tenant, rp.code, rp.doc.Status, rp.doc.Stats)
			return
		}
		served[rp.tenant]++
		if rp.collapsed {
			collapsed++
		}
		if first, ok := bodies[rp.doc.ID]; !ok {
			bodies[rp.doc.ID] = rp.body
		} else if !bytes.Equal(first, rp.body) {
			t.Errorf("job %s: two ?wait=1 bodies differ (%d and %d bytes)", rp.doc.ID, len(first), len(rp.body))
		}
	}
	for r := range rounds {
		for c := range clients {
			check(&hot[r][c])
			check(&unique[r][c])
			if !bytes.Equal(hot[r][c].doc.Stats, hot[r][0].doc.Stats) {
				t.Errorf("round %d: hot stats of clients 0 and %d differ:\n%s\n%s",
					r, c, hot[r][0].doc.Stats, hot[r][c].doc.Stats)
			}
		}
	}

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Collapsed *int `json:"traffic_collapsed_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.Collapsed == nil {
		t.Fatalf("metrics: %v, traffic_collapsed_total %v", err, doc.Collapsed)
	}
	if *doc.Collapsed != collapsed {
		t.Errorf("traffic_collapsed_total = %d, %d responses carried %s", *doc.Collapsed, collapsed, collapsedHeader)
	}
	if collapsed == 0 {
		t.Errorf("no submission of %d collapsed: the byte-identity check compared nothing", 2*rounds*clients)
	}
	for i := range tenants {
		if tenant := fmt.Sprintf("load-%d", i); served[tenant] == 0 {
			t.Errorf("tenant %s got no 200", tenant)
		}
	}
	t.Logf("%d submissions, %d collapsed, %d job ids, per tenant %v", 2*rounds*clients, collapsed, len(bodies), served)
}
