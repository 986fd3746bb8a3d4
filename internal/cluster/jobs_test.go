package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simdtree/internal/server"
)

// TestFleetJobHistoryEvicts bounds the coordinator's job history the way a
// node bounds its own: with a 3-entry store, five terminal fleet jobs
// behind a still-running one leave the running job and the two newest
// addressable, and the oldest terminal ones answer 404.
func TestFleetJobHistoryEvicts(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	nodeCfg := server.Config{Workers: 2, Runners: map[string]server.Runner{"gatesim": blockingRunner(&runs, release)}}
	c, err := New(Config{Nodes: []string{startTrafficNode(t, nodeCfg, nil)}, ExtraDomains: []string{"gatesim"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown(context.Background()) //lint:allow errdrop no loops are running
	c.jobs = server.NewJobStore[*fleetJob]("f", 3)
	c.ProbeOnce(context.Background())
	fleet := httptest.NewServer(c.Handler())
	defer fleet.Close()
	defer once.Do(func() { close(release) })

	running, code := postJSONAs[fleetWireJob](t, fleet.URL+"/v1/jobs", `{"domain":"gatesim","scheme":"GP-DK","p":8}`)
	if code != http.StatusAccepted {
		t.Fatalf("gated submit: status %d", code)
	}
	var done []string
	for seed := 1; seed <= 5; seed++ {
		spec := fmt.Sprintf(`{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":500,"seed":%d}}`, seed)
		sub, _ := postJSONAs[fleetWireJob](t, fleet.URL+"/v1/jobs", spec)
		waitFleetTerminal(t, fleet.URL, sub.ID)
		done = append(done, sub.ID)
	}

	status := func(id string) int {
		resp, err := http.Get(fleet.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i, id := range done {
		want := http.StatusOK
		if i < 3 {
			want = http.StatusNotFound
		}
		if got := status(id); got != want {
			t.Errorf("terminal job %d (%s): GET answered %d, want %d", i+1, id, got, want)
		}
	}
	if got := status(running.ID); got != http.StatusOK {
		t.Errorf("running job %s: GET answered %d, want 200", running.ID, got)
	}
	if got := len(c.jobs.All()); got != 3 {
		t.Errorf("fleet history holds %d jobs, want 3", got)
	}
	once.Do(func() { close(release) })
	if j := waitFleetTerminal(t, fleet.URL, running.ID); j.Status != "done" {
		t.Errorf("released job finished %q, want done", j.Status)
	}
}

// TestFleetJobHistoryResolves covers the fleet records a node's history
// has no counterpart for: ones whose status only the coordinator can
// learn.  Each must end terminal without a client asking, or it would sit
// in the history for good.
func TestFleetJobHistoryResolves(t *testing.T) {
	ctx := context.Background()
	spec := func(seed int) string {
		return fmt.Sprintf(`{"domain":"synthetic","scheme":"GP-DK","p":8,"synthetic":{"w":500,"seed":%d}}`, seed)
	}
	startFleet := func(t *testing.T, cfg Config) (*Coordinator, string) {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Shutdown(ctx) }) //lint:allow errdrop no loops are running
		c.ProbeOnce(ctx)
		fleet := httptest.NewServer(c.Handler())
		t.Cleanup(fleet.Close)
		return c, fleet.URL
	}
	status := func(t *testing.T, url string) int {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// A node that evicted a finished job answers 404 for it: the record
	// ends failed, naming the node, at the next sync.
	t.Run("node evicted the job", func(t *testing.T) {
		node := startNode(t, server.Config{Workers: 1, JobHistory: 1})
		c, fleet := startFleet(t, Config{Nodes: []string{node.ts.URL}})
		sub, _ := postJSONAs[fleetWireJob](t, fleet+"/v1/jobs", spec(1))
		waitNodeTerminal(t, sub.Node, sub.NodeJobID)
		next, _ := postJSONAs[innerWireJob](t, sub.Node+"/v1/jobs", spec(2))
		waitNodeTerminal(t, sub.Node, next.ID)
		if got := status(t, sub.Node+"/v1/jobs/"+sub.NodeJobID); got != http.StatusNotFound {
			t.Fatalf("node still holds %s (GET answered %d)", sub.NodeJobID, got)
		}
		c.SyncOnce(ctx)
		f, _ := c.jobs.Get(sub.ID)
		if !f.Terminal() {
			t.Fatal("record of a job its node evicted is still live after a sync")
		}
		got := getJSONAs[fleetJobResponse](t, fleet+"/v1/jobs/"+sub.ID)
		if got.Status != "failed" || !strings.Contains(got.Error, "no longer holds job "+sub.NodeJobID) {
			t.Errorf("record reads status %q, error %q; want failed, naming the evicted job", got.Status, got.Error)
		}
	})

	// Without a sync loop, jobs nobody polls are resolved once they fill
	// the history, and the following submissions evict them.  The first
	// three run on one gate, the last two on another that stays shut, so
	// every record is live when it is added.
	t.Run("unpolled without a sync loop", func(t *testing.T) {
		var runs atomic.Int64
		first, later := make(chan struct{}), make(chan struct{})
		var once sync.Once
		node := startNode(t, server.Config{Workers: 1, Runners: map[string]server.Runner{
			"gatesim": blockingRunner(&runs, first), "latesim": blockingRunner(&runs, later)}})
		c, fleet := startFleet(t, Config{Nodes: []string{node.ts.URL}, ExtraDomains: []string{"gatesim", "latesim"}})
		c.jobs = server.NewJobStore[*fleetJob]("f", 3)
		defer close(later)
		defer once.Do(func() { close(first) })
		var subs []fleetWireJob
		submit := func(domain string, budget int) {
			spec := fmt.Sprintf(`{"domain":%q,"scheme":"GP-DK","p":8,"budget_cycles":%d}`, domain, budget)
			sub, code := postJSONAs[fleetWireJob](t, fleet+"/v1/jobs", spec)
			if code != http.StatusAccepted {
				t.Fatalf("submit %s: status %d", spec, code)
			}
			subs = append(subs, sub)
		}
		for budget := 1; budget <= 3; budget++ {
			submit("gatesim", budget)
		}
		once.Do(func() { close(first) })
		for _, sub := range subs {
			waitNodeTerminal(t, sub.Node, sub.NodeJobID)
		}
		// The fourth add finds the history full of live records and
		// starts a sync.
		submit("latesim", 4)
		deadline := time.Now().Add(10 * time.Second)
		for _, sub := range subs[:3] {
			for f, _ := c.jobs.Get(sub.ID); !f.Terminal(); time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("unpolled job %s never resolved", sub.ID)
				}
			}
		}
		submit("latesim", 5)
		for i, sub := range subs {
			want := http.StatusOK
			if i < 2 {
				want = http.StatusNotFound
			}
			if got := status(t, fleet+"/v1/jobs/"+sub.ID); got != want {
				t.Errorf("job %d (%s): GET answered %d, want %d", i+1, sub.ID, got, want)
			}
		}
	})

	// A job whose node was ejected while no survivor could take it is
	// failed over by the first sync after another node is readmitted.
	t.Run("no survivor at ejection", func(t *testing.T) {
		var runs atomic.Int64
		block, release := make(chan struct{}), make(chan struct{})
		close(release)
		gated := func(ch chan struct{}) server.Config {
			return server.Config{Workers: 1, Runners: map[string]server.Runner{"gatesim": blockingRunner(&runs, ch)}}
		}
		owner, other := startNode(t, gated(block)), startNode(t, gated(block))
		c, fleet := startFleet(t, Config{Nodes: []string{owner.ts.URL, other.ts.URL}, ExtraDomains: []string{"gatesim"}})
		sub, code := postJSONAs[fleetWireJob](t, fleet+"/v1/jobs", `{"domain":"gatesim","scheme":"GP-DK","p":8}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		if sub.Node == other.ts.URL {
			owner, other = other, owner
		}
		eject := func(n *testNode) {
			n.kill()
			for i := 0; i < 3; i++ {
				c.ProbeOnce(ctx)
			}
		}
		eject(other)
		eject(owner)
		f, _ := c.jobs.Get(sub.ID)
		f.mu.Lock()
		node, lastErr := f.node, f.lastErr
		f.mu.Unlock()
		if f.Terminal() || node != owner.ts.URL || lastErr == "" {
			t.Fatalf("after the last node's ejection: terminal %t, node %s, error %q; want live on %s with an error", f.Terminal(), node, lastErr, owner.ts.URL)
		}

		other.revive(gated(release))
		c.ProbeOnce(ctx)
		c.SyncOnce(ctx)
		f.mu.Lock()
		node = f.node
		f.mu.Unlock()
		if node != other.ts.URL {
			t.Fatalf("after readmission and a sync the job is on %s, want %s", node, other.ts.URL)
		}
		if j := waitFleetTerminal(t, fleet, sub.ID); j.Status != "done" || j.Failovers != 1 {
			t.Errorf("failed-over job finished %q after %d failovers, want done after 1", j.Status, j.Failovers)
		}
	})
}
