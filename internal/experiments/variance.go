package experiments

import (
	"fmt"
	"math"

	"simdtree/internal/simd"
	"simdtree/internal/synthetic"
)

// Variance measures instance-to-instance spread: the paper's tables rest
// on one instance per problem size, so this experiment quantifies how
// much the efficiencies move across `runs` different trees of identical
// size.  Tight spreads justify the paper's single-instance methodology;
// they also separate scheme effects from instance luck.  A row is one
// scheme's mean, lowest, highest and standard deviation of E.
func Variance(w int64, p, workers, runs int, labels []string) (Table, error) {
	if runs < 2 {
		runs = 5
	}
	t := Table{
		Name:  "variance",
		Title: fmt.Sprintf("# Instance variance: %d instances per scheme, identical size", runs),
		Columns: []Column{{"scheme", "scheme", ""}, {"w", "W", ""}, {"mean_e", "mean E", "%.3f"},
			{"min_e", "min", "%.3f"}, {"max_e", "max", "%.3f"}, {"stddev", "stddev", "%.4f"}},
	}
	for _, label := range labels {
		var es []float64
		for r := 0; r < runs; r++ {
			st, err := runCM2[synthetic.Node](synthetic.New(w, 0x5EED0+uint64(r)*7919), label, simd.Options{P: p, Workers: workers}, 1)
			if err != nil {
				return t, err
			}
			es = append(es, st.Efficiency())
		}
		mean, lo, hi := 0.0, es[0], es[0]
		for _, e := range es {
			mean += e
			lo, hi = min(lo, e), max(hi, e)
		}
		mean /= float64(runs)
		sd := 0.0
		for _, e := range es {
			sd += (e - mean) * (e - mean)
		}
		t.Rows = append(t.Rows, []any{label, w, mean, lo, hi, math.Sqrt(sd / float64(runs))})
	}
	return t, nil
}
