package simdtree

import (
	"context"
	"testing"

	"simdtree/internal/queens"
)

func TestSchemesList(t *testing.T) {
	labels := Schemes()
	if len(labels) != 6 {
		t.Fatalf("%d schemes, want the 6 of Table 1", len(labels))
	}
}

func TestSearchSynthetic(t *testing.T) {
	stats, err := SearchSyntheticContext(context.Background(), 5000, 1, "GP-DK", Options{P: 32})
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
	stats, w, err := SearchPuzzleContext(context.Background(), 5, 16, "GP-S0.80", Options{P: 16})
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
		base, _, err := SearchPuzzleContext(context.Background(), 5, 16, label, Options{P: 16, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 8} {
			got, _, err := SearchPuzzleContext(context.Background(), 5, 16, label, Options{P: 16, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got != base {
				t.Errorf("%s: Workers=%d stats differ from Workers=1:\n got %+v\nwant %+v",
					label, workers, got, base)
			}
		}
	}

	base, err := SearchSyntheticContext(context.Background(), 5000, 1, "GP-DP", Options{P: 32, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		got, err := SearchSyntheticContext(context.Background(), 5000, 1, "GP-DP", Options{P: 32, Workers: workers})
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
	if _, err := SearchSyntheticContext(context.Background(), 100, 1, "bogus", Options{P: 4}); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestRunGenericWithCustomDomain(t *testing.T) {
	stats, err := RunContext[queens.Node](context.Background(), queens.New(7), "nGP-S0.70", Options{P: 16})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Goals != 40 {
		t.Errorf("7-queens found %d solutions, want 40", stats.Goals)
	}
}
