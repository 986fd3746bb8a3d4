package simd

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"simdtree/internal/puzzle"
	"simdtree/internal/search"
	"simdtree/internal/synthetic"
)

// TestParallelMatchesSerial verifies the anomaly-free property the paper's
// experiments are built on: because every run searches the bounded tree
// exhaustively, the parallel search expands exactly the nodes the serial
// search does, for every scheme.
func TestParallelMatchesSerial(t *testing.T) {
	inst := puzzle.Scramble(7, 30)
	dom := puzzle.NewDomain(inst)
	bound, w := search.FinalIterationBound(dom)
	serial := search.DFS[puzzle.Node](search.NewBounded(dom, bound))
	if serial.Expanded != w {
		t.Fatalf("FinalIterationBound W=%d, DFS W=%d", w, serial.Expanded)
	}
	for _, label := range Table1Labels(0.75) {
		sch, err := ParseScheme[puzzle.Node](label)
		if err != nil {
			t.Fatalf("ParseScheme(%q): %v", label, err)
		}
		stats, err := Run[puzzle.Node](search.NewBounded(dom, bound), sch, Options{P: 64})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if stats.W != serial.Expanded {
			t.Errorf("%s: parallel W=%d, serial W=%d", label, stats.W, serial.Expanded)
		}
		if stats.Goals != serial.Goals {
			t.Errorf("%s: parallel goals=%d, serial goals=%d", label, stats.Goals, serial.Goals)
		}
		if res := stats.BalanceCheck(); res != 0 {
			t.Errorf("%s: accounting identity violated by %v", label, res)
		}
		if e := stats.Efficiency(); e <= 0 || e > 1 {
			t.Errorf("%s: efficiency %f out of range", label, e)
		}
	}
}

// TestWorkersOddShardCount covers a worker count that does not divide P,
// so the last shard is short; the full Workers-invariance suite (all
// Table 1 schemes, traces and checkpoint bytes) lives in workers_test.go.
func TestWorkersOddShardCount(t *testing.T) {
	tree := synthetic.New(20000, 42)
	sch, err := ParseScheme[synthetic.Node]("GP-DK")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run[synthetic.Node](tree, sch, Options{P: 128, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, 7} {
		sch2, _ := ParseScheme[synthetic.Node]("GP-DK")
		got, err := Run[synthetic.Node](tree, sch2, Options{P: 128, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != base {
			t.Errorf("workers=%d: stats diverged\n got %+v\nwant %+v", workers, got, base)
		}
	}
}

// TestStaticTriggerKeepsMachineFed checks that with a high static trigger
// most processors stay busy between phases.
func TestStaticTriggerKeepsMachineFed(t *testing.T) {
	tree := synthetic.New(50000, 9)
	sch, err := StaticScheme[synthetic.Node]("GP", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run[synthetic.Node](tree, sch, Options{P: 64})
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.Efficiency(); e < 0.5 {
		t.Errorf("GP-S0.90 efficiency %f unexpectedly low (stats %v)", e, stats)
	}
	if stats.LBPhases == 0 {
		t.Error("expected at least one load-balancing phase")
	}
}

// BenchmarkEngineCycle measures raw simulation throughput.
func BenchmarkEngineCycle(b *testing.B) {
	tree := synthetic.New(int64(b.N)+1000, 11)
	sch, _ := ParseScheme[synthetic.Node]("GP-S0.90")
	if _, err := Run[synthetic.Node](tree, sch, Options{P: 256}); err != nil {
		b.Fatal(err)
	}
}

// TestMachineAllocsPerWord is the allocation gate of the arena's home
// windows: a whole run of the storm shape — nGP-S1.00, about thirty nodes a
// PE, every PE receiving its first node from a transfer — allocates per flag
// word, not per PE.  The commit before the windows made at least 1.9*P
// allocations here (a 16-node buffer for every PE, a level table for most);
// the bound leaves room for the chunk of each of the P/64 words and the few
// stacks in a hundred that outgrow eight nodes.  Workers=4 is the
// same run with the first windows taken inside parallel transfer rounds.
func TestMachineAllocsPerWord(t *testing.T) {
	for _, p := range []int{4096, 65536} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("P=%d/workers=%d", p, workers), func(t *testing.T) {
				if p > 4096 && testing.Short() {
					t.Skip("a 2M-node run; not in -short")
				}
				sch, err := ParseScheme[synthetic.Node]("nGP-S1.00")
				if err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				m, err := NewMachine[synthetic.Node](synthetic.New(int64(30*p), 1), sch, Options{P: p, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				st, err := m.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				mallocs := int(after.Mallocs - before.Mallocs)
				t.Logf("W=%d in %d cycles, %d phases, %d transfers: %d allocations (%.2f a PE)", st.W, st.Cycles, st.LBPhases, st.Transfers, mallocs, float64(mallocs)/float64(p))
				if limit := p/8 + 512; mallocs > limit {
					t.Errorf("the run made %d allocations, want at most P/8 + 512 = %d", mallocs, limit)
				}
			})
		}
	}
}
