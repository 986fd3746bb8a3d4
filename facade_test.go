package simdtree

import (
	"context"
	"errors"
	"testing"

	"simdtree/internal/puzzle"
	"simdtree/internal/queens"
	"simdtree/internal/search"
	"simdtree/internal/simd"
)

func TestSchemesList(t *testing.T) {
	labels := Schemes()
	if len(labels) != 6 {
		t.Fatalf("%d schemes, want the 6 of Table 1", len(labels))
	}
}

func TestSearchSynthetic(t *testing.T) {
	stats, err := SearchSynthetic(5000, 1, "GP-DK", Options{P: 32})
	if err != nil {
		t.Fatal(err)
	}
	if stats.W != 5000 {
		t.Errorf("W=%d, want 5000", stats.W)
	}
	if stats.Efficiency() <= 0 {
		t.Error("non-positive efficiency")
	}
}

func TestSearchPuzzle(t *testing.T) {
	stats, w, err := SearchPuzzle(5, 16, "GP-S0.80", Options{P: 16})
	if err != nil {
		t.Fatal(err)
	}
	if stats.W != w {
		t.Errorf("parallel W=%d, serial W=%d", stats.W, w)
	}
	if stats.Goals == 0 {
		t.Error("no solutions found in the final iteration")
	}
}

// TestWorkerCountInvariance is the cross-package determinism regression
// test: the Workers option only shards the host-side simulation loop, so
// the same instance must produce field-for-field identical Stats at any
// worker count.  This is the invariant the simdlint detrand and maporder
// analyzers exist to protect.
func TestWorkerCountInvariance(t *testing.T) {
	for _, label := range []string{"GP-S0.80", "GP-DK"} {
		base, _, err := SearchPuzzle(5, 16, label, Options{P: 16, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 8} {
			got, _, err := SearchPuzzle(5, 16, label, Options{P: 16, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got != base {
				t.Errorf("%s: Workers=%d stats differ from Workers=1:\n got %+v\nwant %+v",
					label, workers, got, base)
			}
		}
	}

	base, err := SearchSynthetic(5000, 1, "GP-DP", Options{P: 32, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		got, err := SearchSynthetic(5000, 1, "GP-DP", Options{P: 32, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Errorf("synthetic: Workers=%d stats differ from Workers=1:\n got %+v\nwant %+v",
				workers, got, base)
		}
	}
}

func TestRunRejectsBadScheme(t *testing.T) {
	if _, err := SearchSynthetic(100, 1, "bogus", Options{P: 4}); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestRunGenericWithCustomDomain(t *testing.T) {
	stats, err := Run[queens.Node](queens.New(7), "nGP-S0.70", Options{P: 16})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Goals != 40 {
		t.Errorf("7-queens found %d solutions, want 40", stats.Goals)
	}
}

// TestResumeFacade drives the checkpoint path through the public facade:
// interrupt SearchPuzzleContext at a cycle boundary, snapshot, and let
// SearchPuzzleResumeContext finish the run to the uninterrupted stats.
func TestResumeFacade(t *testing.T) {
	const (
		seed  uint64 = 5
		steps        = 16
		label        = "GP-S0.80"
	)
	ref, w, err := SearchPuzzleContext(context.Background(), seed, steps, label, Options{P: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{P: 16, ProgressEvery: 1}
	k := ref.Cycles / 2
	opts.Progress = func(p simd.ProgressInfo) {
		if p.Stats.Cycles >= k {
			cancel()
		}
	}
	dom := puzzle.NewDomain(puzzle.Scramble(seed, steps))
	bound, _ := search.FinalIterationBound(dom)
	m, err := simd.NewMachine[puzzle.Node](search.NewBounded(dom, bound), mustScheme[puzzle.Node](t, label), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt: %v", err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, w2, err := SearchPuzzleResumeContext(context.Background(), seed, steps, label, Options{P: 16}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref || w2 != w {
		t.Errorf("resumed run differs:\n got %+v (w=%d)\nwant %+v (w=%d)", got, w2, ref, w)
	}
}

func mustScheme[S any](t *testing.T, label string) simd.Scheme[S] {
	t.Helper()
	sch, err := simd.ParseScheme[S](label)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}
