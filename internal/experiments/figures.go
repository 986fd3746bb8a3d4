package experiments

import (
	"fmt"
	"slices"
	"strings"

	"simdtree/internal/analysis"
	"simdtree/internal/plot"
	"simdtree/internal/simd"
	"simdtree/internal/synthetic"
	"simdtree/internal/trace"
)

// IsoLevels are the efficiency levels of the Figure 4 and 7 iso-curves.
var IsoLevels = []float64{0.50, 0.65, 0.75, 0.85}

// Fig1 regenerates the trigger geometry of Figure 1 from a live run: the
// per-cycle R1 and R2 quantities of the requested dynamic trigger
// ("GP-DP" or "GP-DK").  A load balance fires whenever R1 >= R2.  The
// text table shows about 60 cycles in ms; the second table, CSV only, is
// the whole trace in ns.
func (s *Suite[S]) Fig1(label string, wl Workload[S]) ([]Table, error) {
	tr := &trace.Trace{}
	opts := s.opts()
	opts.Trace = tr
	if _, err := runCM2(wl.Domain, label, opts, 1); err != nil {
		return nil, err
	}
	text := Table{
		Title:   fmt.Sprintf("# Figure 1: per-cycle trigger quantities for %s on %s", label, wl.Name),
		Columns: []Column{{"", "cycle", ""}, {"", "active", ""}, {"", "R1(ms)", "%.1f"}, {"", "R2(ms)", "%.1f"}},
	}
	full := Table{
		Name:    "fig1_" + label,
		Columns: []Column{{"cycle", "", ""}, {"active", "", ""}, {"r1_ns", "", ""}, {"r2_ns", "", ""}},
	}
	stride := len(tr.Samples)/60 + 1
	for i, smp := range tr.Samples {
		if i%stride == 0 {
			text.Rows = append(text.Rows, []any{smp.Cycle, smp.Active, float64(smp.R1) / 1e6, float64(smp.R2) / 1e6})
		}
		full.Rows = append(full.Rows, []any{smp.Cycle, smp.Active, int64(smp.R1), int64(smp.R2)})
	}
	return []Table{text, full}, nil
}

// Fig3 derives Figure 3 from Table 2: the difference in the number of
// load-balancing phases performed by nGP and GP as a function of the
// static threshold, for each problem size.  The gap should grow with both
// x and W.
func Fig3(table2 Table) Table {
	t := Table{
		Title:   "# Figure 3: Nlb(nGP) - Nlb(GP) vs static threshold x",
		Columns: []Column{{"", "W", ""}, {"", "x", "%.2f"}, {"", "nGP Nlb", ""}, {"", "GP Nlb", ""}, {"", "diff", ""}},
	}
	for i := range table2.Rows {
		ngp, gp := Value[int](table2, i, "ngp_nlb"), Value[int](table2, i, "gp_nlb")
		t.Rows = append(t.Rows, []any{Value[int64](table2, i, "w"), Value[float64](table2, i, "x"), ngp, gp, ngp - gp})
	}
	return t
}

// IsoGrid runs the isoefficiency grids behind Figures 4 and 7: every
// scheme over the cartesian product of machine sizes and synthetic
// problem sizes, then extracts experimental isoefficiency curves at the
// given efficiency levels.  Flat W/(P log P) — growth exponent near 1 —
// is the paper's O(P log P) verdict for GP; rising curves reproduce nGP's
// degradation.  It returns one text table per scheme, holding its curves,
// each level's fitted exponent b in W ~ (P log P)^b and a plot, then one
// CSV-only table, named name, of every grid sample and curve point.
func IsoGrid(name string, labels []string, ps []int, ws []int64, workers int, levels []float64) ([]Table, error) {
	var tables []Table
	data := Table{
		Name:    name,
		Columns: []Column{{"scheme", "", ""}, {"kind", "", ""}, {"p", "", ""}, {"w", "", ""}, {"e", "", ""}},
	}
	for _, label := range labels {
		var samples []analysis.Sample
		for _, p := range ps {
			for _, wSize := range ws {
				st, err := runCM2[synthetic.Node](synthetic.New(wSize, 0xBEEF^uint64(wSize)), label, simd.Options{P: p, Workers: workers}, 1)
				if err != nil {
					return nil, err
				}
				samples = append(samples, analysis.Sample{P: p, W: st.W, E: st.Efficiency()})
				data.Rows = append(data.Rows, []any{label, "sample", p, st.W, st.Efficiency()})
			}
		}
		curves := analysis.IsoCurves(samples, levels)
		t := Table{
			Title:   "\n## scheme " + label,
			Columns: []Column{{"", "E", "%.2f"}, {"", "P", ""}, {"", "W", "%.0f"}, {"", "W/(P log2 P)", "%.1f"}},
		}
		if len(tables) == 0 {
			t.Title = "# Experimental isoefficiency curves (Figures 4/7 style)\n" + t.Title
		}
		// The paper plots W against P log P per efficiency level; flat
		// normalised curves confirm O(P log P) isoefficiency.
		var series []plot.Series
		for _, lv := range levels {
			sr := plot.Series{Name: fmt.Sprintf("E=%.2f", lv)}
			for _, pt := range curves[lv] {
				plogp := float64(pt.P) * log2f(pt.P)
				t.Rows = append(t.Rows, []any{lv, pt.P, pt.W, pt.W / plogp})
				data.Rows = append(data.Rows, []any{label, fmt.Sprintf("iso_%.2f", lv), pt.P, pt.W, lv})
				sr.X = append(sr.X, plogp)
				sr.Y = append(sr.Y, pt.W)
			}
			if b, ok := analysis.GrowthExponent(curves[lv]); ok {
				t.Rows = append(t.Rows, []any{lv, "fit", fmt.Sprintf("W ~ (P log P)^%.2f", b), ""})
			}
			series = append(series, sr)
		}
		t.Plot = plot.Render(plot.Config{Title: label, XLabel: "P log2 P", YLabel: "W", LogY: true}, series...) + "\n"
		tables = append(tables, t)
	}
	return append(tables, data), nil
}

func log2f(p int) float64 {
	l := 0.0
	for v := p; v > 1; v >>= 1 {
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}

// Fig4Labels are the schemes of the paper's Figure 4 panels.
func Fig4Labels() []string {
	return []string{"GP-S0.90", "nGP-S0.90", "nGP-S0.80", "nGP-S0.70"}
}

// Fig7Labels are the schemes of the paper's Figure 7 panels.
func Fig7Labels() []string {
	return []string{"GP-DK", "GP-DP", "nGP-DK", "nGP-DP"}
}

// Fig8 reproduces Figure 8: active processors per cycle for GP-D^P and
// GP-D^K at the measured and at 16x-inflated load-balancing cost.  At the
// high cost, D^P lets the active count sag far lower between phases than
// D^K does — the paper's Section 6.1 failure mode.  Each run's cycle
// count and lowest active count are the rows, in the CSV only; the text
// shows them above each run's plot.
func (s *Suite[S]) Fig8(wl Workload[S]) (Table, error) {
	t := Table{
		Name:    "fig8",
		Title:   fmt.Sprintf("# Figure 8: active processors per cycle on %s (W=%d, P=%d)", wl.Name, wl.W, s.P),
		Columns: []Column{{"scheme", "", ""}, {"lb_scale", "", ""}, {"cycles", "", ""}, {"min_active", "", ""}},
	}
	var plots strings.Builder
	for _, scale := range []float64{1, 16} {
		for _, label := range []string{"GP-DP", "GP-DK"} {
			tr := &trace.Trace{}
			opts := s.opts()
			opts.Trace = tr
			if _, err := runCM2(wl.Domain, label, opts, scale); err != nil {
				return t, err
			}
			active := tr.ActiveSeries()
			t.Rows = append(t.Rows, []any{label, scale, len(active), slices.Min(active)})
			ys := make([]float64, len(active))
			for i, a := range active {
				ys[i] = float64(a)
			}
			fmt.Fprintf(&plots, "\n## %s at %.0fx tlb: %d cycles, min active %d\n%s\n", label, scale, len(active), slices.Min(active),
				plot.Line(plot.Config{
					Title:  fmt.Sprintf("%s @ %.0fx tlb", label, scale),
					XLabel: "node expansion cycle", YLabel: "active processors",
				}, ys))
		}
	}
	t.Plot = plots.String()
	return t, nil
}
