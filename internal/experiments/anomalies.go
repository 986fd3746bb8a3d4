package experiments

import (
	"fmt"

	"simdtree/internal/knapsack"
	"simdtree/internal/search"
	"simdtree/internal/simd"
)

// Anomalies measures the speedup anomalies of parallel depth-first
// branch-and-bound, the effect Section 3 of the paper explicitly assumes
// away ("we study the performance ... in absence of such speedup
// anomalies"): on knapsack instances, the number of nodes the parallel
// search expands differs from the serial count because incumbents arrive
// in a different order.  The paper's own workloads avoid this by
// exhaustive bounded search; this experiment shows what that choice
// dodges.
func Anomalies(items int, seeds []uint64, ps []int, workers int) (Table, error) {
	t := Table{
		Name:  "anomalies",
		Title: "# Speedup anomalies of parallel DFBB (knapsack, GP-DK)",
		Columns: []Column{{"seed", "seed", ""}, {"p", "P", ""}, {"serial_w", "serial W", ""}, {"parallel_w", "parallel W", ""},
			{"ratio", "ratio", "%.3f"}, {"optimal", "optimal", ""}},
	}
	for _, seed := range seeds {
		prob := knapsack.RandomCorrelated(items, seed)
		want := prob.OptimalByDP()
		serialCost, serialW, ok := search.Optimum[knapsack.Node](prob)
		if !ok || -serialCost != want {
			return t, fmt.Errorf("anomalies: serial DFBB wrong on seed %d", seed)
		}
		for _, p := range ps {
			b := search.NewDFBB[knapsack.Node](prob)
			st, err := runCM2[knapsack.Node](b, "GP-DK", simd.Options{P: p, Workers: workers}, 1)
			if err != nil {
				return t, err
			}
			// The ratio is parallel over serial W: below 1 an
			// acceleration, above 1 a deceleration.
			t.Rows = append(t.Rows, []any{seed, p, serialW, st.W, float64(st.W) / float64(serialW), -b.In.Best() == want})
		}
	}
	return t, nil
}
