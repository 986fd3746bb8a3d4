package experiments

import (
	"fmt"
	"slices"
	"strings"

	"simdtree/internal/analysis"
	"simdtree/internal/metrics"
	"simdtree/internal/search"
	"simdtree/internal/simd"
)

// Alpha is the work-splitting quality assumed when evaluating the paper's
// closed forms (equation 18 and the V(P) bounds).  The paper notes the
// optimal-trigger equation "is not too sensitive on alpha and any
// reasonable approximation should be acceptable"; one half matches the
// intent of bottom-node splitting.
const Alpha = 0.5

// CostRatio is tlb/Ucalc for the paper's CM-2 measurements: a 13 ms
// load-balancing phase against a 30 ms node expansion cycle.
const CostRatio = 13.0 / 30.0

// StaticThresholds are the static triggers x of Table 2 and Figure 3.
var StaticThresholds = []float64{0.50, 0.60, 0.70, 0.80, 0.90}

// Suite bundles the workloads and machine configuration the table
// experiments share.
type Suite[S any] struct {
	Workloads []Workload[S]
	P         int
	Workers   int
}

// opts is the suite's machine.
func (s *Suite[S]) opts() simd.Options { return simd.Options{P: s.P, Workers: s.Workers} }

// runCM2 simulates the scheme named label on dom with opts' machine at
// the paper's CM-2 costs, the load-balancing cost inflated lbScale times.
func runCM2[S any](dom search.Domain[S], label string, opts simd.Options, lbScale float64) (metrics.Stats, error) {
	sch, err := simd.ParseScheme[S](label)
	if err != nil {
		return metrics.Stats{}, err
	}
	opts.Costs = simd.CM2Costs()
	opts.Costs.LBScale = lbScale
	return simd.Run[S](dom, sch, opts)
}

// ClosestTier returns the workload whose size is closest to target (the
// first on a tie).
func ClosestTier[S any](wls []Workload[S], target int64) Workload[S] {
	best := wls[0]
	for _, wl := range wls[1:] {
		if absDiff(wl.W, target) < absDiff(best.W, target) {
			best = wl
		}
	}
	return best
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// triple is the (Nexpand, Nlb, E) cell the paper's tables report per
// scheme, as three columns: csv and head prefix them, mid names the
// middle count (phases, or work transfers in Table 4).
func triple(csv, head, mid, midHead string) []Column {
	return []Column{
		{csv + "_nexpand", head + " Nexp", ""},
		{csv + "_" + mid, head + " " + midHead, ""},
		{csv + "_e", head + " E", "%.2f"},
	}
}

// tripleOf is a triple's values: st's cycles, the given middle count and
// st's efficiency.
func tripleOf(st metrics.Stats, mid int) []any {
	return []any{st.Cycles, mid, st.Efficiency()}
}

// Table2 reproduces the paper's Table 2: static triggering at thresholds
// xs for both matching schemes over every workload, plus the analytic
// optimal trigger.
func (s *Suite[S]) Table2(xs []float64) (Table, error) {
	t := Table{
		Name:  "table2",
		Title: "# Table 2: static triggering (Nexpand / Nlb / E), paper layout",
		Columns: slices.Concat([]Column{{"w", "W", ""}, {"x", "x", "%.2f"}},
			triple("ngp", "nGP", "nlb", "Nlb"), triple("gp", "GP", "nlb", "Nlb"), []Column{{"xo", "xo", "%.2f"}}),
	}
	for _, wl := range s.Workloads {
		xo := analysis.OptimalStaticTrigger(float64(wl.W), float64(s.P), CostRatio, Alpha)
		for _, x := range xs {
			ngp, err := runCM2(wl.Domain, fmt.Sprintf("nGP-S%.2f", x), s.opts(), 1)
			if err != nil {
				return t, err
			}
			gp, err := runCM2(wl.Domain, fmt.Sprintf("GP-S%.2f", x), s.opts(), 1)
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, slices.Concat([]any{wl.W, x}, tripleOf(ngp, ngp.LBPhases), tripleOf(gp, gp.LBPhases), []any{xo}))
		}
	}
	return t, nil
}

// Table3 reproduces the paper's Table 3: GP-S^x efficiencies for
// thresholds around the analytically computed optimum, verifying that
// equation 18 lands near the empirical best.
func (s *Suite[S]) Table3() (Table, error) {
	t := Table{
		Name:    "table3",
		Title:   "# Table 3: GP-S^x efficiency around the analytic optimum xo",
		Columns: []Column{{"w", "W", ""}, {"xo", "xo", "%.3f"}, {"x", "x", "%.3f"}, {"e", "E", "%.3f"}},
	}
	for _, wl := range s.Workloads {
		xo := analysis.OptimalStaticTrigger(float64(wl.W), float64(s.P), CostRatio, Alpha)
		for _, off := range []float64{-0.03, -0.02, -0.01, 0, 0.01, 0.02, 0.03} {
			x := xo + off
			if x <= 0 || x >= 1 {
				continue
			}
			st, err := runCM2(wl.Domain, fmt.Sprintf("GP-S%.4f", x), s.opts(), 1)
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, []any{wl.W, xo, x, st.Efficiency()})
		}
	}
	return t, nil
}

// Table4 reproduces the paper's Table 4: both dynamic triggering schemes
// under both matchers, with the S^0.85 initial distribution (Section 7).
// *Nlb in the paper counts work transfers, and so does the middle column
// of each scheme here.
func (s *Suite[S]) Table4() (Table, error) {
	t := Table{
		Name:    "table4",
		Title:   "# Table 4: dynamic triggering (Nexpand / *Nlb / E)",
		Columns: []Column{{"w", "W", ""}},
	}
	labels := []string{"nGP-DP", "GP-DP", "nGP-DK", "GP-DK"}
	for _, label := range labels {
		prefix := strings.ToLower(strings.ReplaceAll(label, "-", "_"))
		t.Columns = append(t.Columns, triple(prefix, label, "transfers", "*Nlb")...)
	}
	for _, wl := range s.Workloads {
		row := []any{wl.W}
		for _, label := range labels {
			st, err := runCM2(wl.Domain, label, s.opts(), 1)
			if err != nil {
				return t, err
			}
			row = append(row, tripleOf(st, st.Transfers)...)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table5 reproduces the paper's Table 5: GP matching under D^P, D^K and
// the optimal static trigger when the load-balancing cost is inflated
// 12x and 16x, the regime where D^P degrades and D^K tracks S^xo.
func (s *Suite[S]) Table5(wl Workload[S]) (Table, error) {
	t := Table{
		Name:  "table5",
		Title: fmt.Sprintf("# Table 5: GP matching under inflated load-balancing cost (Nexpand / Nlb / E)\n# workload %s, W=%d", wl.Name, wl.W),
		Columns: slices.Concat([]Column{{"lb_scale", "tlb scale", "%.0fx"}},
			triple("dp", "DP", "nlb", "Nlb"), triple("dk", "DK", "nlb", "Nlb"), triple("sxo", "S^xo", "nlb", "Nlb"),
			[]Column{{"xo", "xo", "%.3f"}}),
	}
	for _, scale := range []float64{1, 12, 16} {
		xo := analysis.OptimalStaticTrigger(float64(wl.W), float64(s.P), CostRatio*scale, Alpha)
		row := []any{scale}
		for _, label := range []string{"GP-DP", "GP-DK", fmt.Sprintf("GP-S%.4f", xo)} {
			st, err := runCM2(wl.Domain, label, s.opts(), scale)
			if err != nil {
				return t, err
			}
			row = append(row, tripleOf(st, st.LBPhases)...)
		}
		t.Rows = append(t.Rows, append(row, xo))
	}
	return t, nil
}

// Table6 is the paper's Table 6 (symbolic isoefficiency functions) and the
// numeric exponents from the analysis package for a range of static
// thresholds.
func Table6() ([]Table, error) {
	sym := Table{
		Name:    "table6",
		Title:   "# Table 6: isoefficiency functions of the matching schemes (x >= 0.5)",
		Columns: []Column{{"architecture", "architecture", ""}, {"ngp", "nGP-S^x", ""}, {"gp", "GP-S^x", ""}},
	}
	for _, r := range analysis.Table6() {
		sym.Rows = append(sym.Rows, []any{r.Topology, r.NGP, r.GP})
	}
	num := Table{
		Name:    "table6_numeric",
		Title:   "\n# Numeric forms for selected x:",
		Columns: []Column{{"architecture", "architecture", ""}, {"x", "x", "%.1f"}, {"ngp", "nGP", ""}, {"gp", "GP", ""}},
	}
	for _, topo := range []string{"hypercube", "mesh", "cm2"} {
		for _, x := range []float64{0.5, 0.7, 0.8, 0.9} {
			ngp, err := analysis.IsoStatic("nGP", x, topo)
			if err != nil {
				return nil, fmt.Errorf("table6 %s x=%.1f: %w", topo, x, err)
			}
			gp, err := analysis.IsoStatic("GP", x, topo)
			if err != nil {
				return nil, fmt.Errorf("table6 %s x=%.1f: %w", topo, x, err)
			}
			num.Rows = append(num.Rows, []any{topo, x, ngp, gp})
		}
	}
	return []Table{sym, num}, nil
}
