package simd

import (
	"context"
	"strings"
	"testing"

	"simdtree/internal/puzzle"
	"simdtree/internal/search"
)

func TestRunIDAStarMatchesSerial(t *testing.T) {
	inst := puzzle.Scramble(21, 20)
	dom := puzzle.NewDomain(inst)
	serial := search.IDAStar[puzzle.Node](dom, 0)

	sch, err := ParseScheme[puzzle.Node]("GP-DK")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunIDAStar[puzzle.Node](context.Background(), dom, sch, Options{P: 64}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound != serial.Bound {
		t.Errorf("parallel bound %d, serial %d", res.Bound, serial.Bound)
	}
	if res.Stats.W != serial.Expanded {
		t.Errorf("parallel W %d, serial %d", res.Stats.W, serial.Expanded)
	}
	if res.Stats.Goals == 0 {
		t.Error("no goals found")
	}
	if len(res.Iterations) != serial.Iters {
		t.Errorf("parallel ran %d iterations, serial %d", len(res.Iterations), serial.Iters)
	}
	// Bounds rise strictly across iterations.
	for i := 1; i < len(res.Iterations); i++ {
		if res.Iterations[i].Bound <= res.Iterations[i-1].Bound {
			t.Errorf("bounds not increasing: %v", res.Iterations)
		}
	}
	// Aggregate identity holds.
	if resid := res.Stats.BalanceCheck(); resid != 0 {
		t.Errorf("aggregated accounting residual %v", resid)
	}
}

func TestRunIDAStarIterationLimit(t *testing.T) {
	dom := puzzle.NewDomain(puzzle.Scramble(23, 30))
	sch, _ := ParseScheme[puzzle.Node]("GP-S0.80")
	res, err := RunIDAStar[puzzle.Node](context.Background(), dom, sch, Options{P: 32}, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) > 2 {
		t.Errorf("ran %d iterations, limit was 2", len(res.Iterations))
	}
}

func TestRunIDAStarSolvedRoot(t *testing.T) {
	dom := puzzle.NewDomain(puzzle.Goal())
	sch, _ := ParseScheme[puzzle.Node]("GP-DK")
	res, err := RunIDAStar[puzzle.Node](context.Background(), dom, sch, Options{P: 8}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound != 0 || res.Stats.Goals == 0 {
		t.Errorf("goal-start: bound=%d goals=%d", res.Bound, res.Stats.Goals)
	}
}

func TestRunIDAStarNilDomain(t *testing.T) {
	sch, _ := ParseScheme[puzzle.Node]("GP-DK")
	if _, err := RunIDAStar[puzzle.Node](context.Background(), nil, sch, Options{P: 8}, 0, nil, nil); err == nil {
		t.Error("nil domain accepted")
	}
}

// TestRunIDAStarRefusesBoundedSnapshot: a snapshot of a single bounded
// run has no iteration state to replay, so the driver refuses to resume
// it rather than guess the bound it was taken under.
func TestRunIDAStarRefusesBoundedSnapshot(t *testing.T) {
	dom := puzzle.NewDomain(puzzle.Scramble(21, 20))
	bound, _ := search.FinalIterationBound[puzzle.Node](dom)
	sch, _ := ParseScheme[puzzle.Node]("GP-DK")
	m, err := NewMachine[puzzle.Node](search.NewBounded[puzzle.Node](dom, bound), sch, Options{P: 8})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunIDAStar[puzzle.Node](context.Background(), dom, sch, Options{P: 8}, 0, snap, nil); err == nil || !strings.Contains(err.Error(), "lacks IDA* state") {
		t.Errorf("resume from a bounded run's snapshot: %v, want a refusal", err)
	}
}
