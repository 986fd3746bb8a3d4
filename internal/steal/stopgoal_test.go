package steal

import (
	"context"
	"errors"
	"testing"

	"simdtree/internal/checkpoint"
	"simdtree/internal/metrics"
	"simdtree/internal/queens"
	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/wire"
)

// TestDriverStopsAtFirstGoalInsideInit is simd's
// TestStopAtFirstGoalInsideInit through the driver: a run donated after
// cycle 1 and finished over two shards stops at the boundary of the cycle
// that found the first goal, although that cycle is still inside the
// initial distribution — and with the Stats of the single machine.
func TestDriverStopsAtFirstGoalInsideInit(t *testing.T) {
	const p = 4096
	newDomain := func() search.Domain[queens.Node] { return queens.New(6) }
	for _, label := range []string{"GP-S0.90", "GP-DK"} {
		t.Run(label, func(t *testing.T) {
			run := func(opts simd.Options) (*simd.Machine[queens.Node], metrics.Stats, error) {
				sch, err := simd.ParseScheme[queens.Node](label)
				if err != nil {
					t.Fatal(err)
				}
				opts.P, opts.InitThreshold = p, 1
				m, err := simd.NewMachine[queens.Node](newDomain(), sch, opts)
				if err != nil {
					t.Fatal(err)
				}
				st, err := m.RunContext(context.Background())
				return m, st, err
			}
			// The first cycle whose prefix of the exhaustive run holds a goal.
			first := 0
			for k := 1; first == 0; k++ {
				_, st, err := run(simd.Options{MaxCycles: k})
				if st.Goals > 0 {
					first = k
				} else if !errors.Is(err, simd.ErrBudgetExceeded) {
					t.Fatalf("the %d-cycle prefix ended with %v and no goal", k, err)
				}
			}
			_, want, err := run(simd.Options{StopAtFirstGoal: true})
			if err != nil {
				t.Fatal(err)
			}

			m, _, err := run(simd.Options{MaxCycles: 1})
			if !errors.Is(err, simd.ErrBudgetExceeded) {
				t.Fatalf("donation point: %v", err)
			}
			snap, err := m.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			donated, err := checkpoint.Encode[queens.Node](wire.QueensCodec{}, checkpoint.Meta{Scheme: label}, snap)
			if err != nil {
				t.Fatal(err)
			}
			meta, raw, err := checkpoint.DecodeRaw(donated)
			if err != nil {
				t.Fatal(err)
			}
			parts, err := simd.ParseSchemeParts(label)
			if err != nil {
				t.Fatal(err)
			}
			shards := buildShards[queens.Node](t, wire.QueensCodec{}, label, p, 2, raw, newDomain)
			d, err := NewDriver(Config{Key: "k", Meta: meta, Scheme: parts, P: p, InitThreshold: 1, StopAtFirstGoal: true}, raw, shards)
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Cycles != first || res.Stats.Goals == 0 {
				t.Errorf("stopped after cycle %d with %d goals; the first goal is in cycle %d", res.Stats.Cycles, res.Stats.Goals, first)
			}
			if res.Stats.InitCycles != first {
				t.Errorf("%d of the first %d cycles were initial distribution: the goal must fall inside it", res.Stats.InitCycles, first)
			}
			if res.Stats != want {
				t.Errorf("distributed stats differ from the single machine's\n got %+v\nwant %+v", res.Stats, want)
			}
		})
	}
}
