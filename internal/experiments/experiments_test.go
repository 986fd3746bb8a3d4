package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"simdtree/internal/synthetic"
)

func tinySyntheticSuite() *Suite[synthetic.Node] {
	sc := TinyScale
	return &Suite[synthetic.Node]{
		Workloads: SyntheticWorkloads(sc.Tiers),
		P:         sc.P,
		Workers:   sc.Workers,
	}
}

// text is t as WriteText prints it.
func text(t *testing.T, tab Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteText(&buf, tab); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// rowOf returns the index of the row whose first cell is key.
func rowOf(t *testing.T, tab Table, key any) int {
	t.Helper()
	for i, r := range tab.Rows {
		if r[0] == key {
			return i
		}
	}
	t.Fatalf("%s: no row %v", tab.Name, key)
	return -1
}

// eff is the E column of the row keyed key.
func eff(t *testing.T, tab Table, key any) float64 {
	t.Helper()
	return Value[float64](tab, rowOf(t, tab, key), "e")
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"full", "quick", "tiny"} {
		sc, err := ScaleByName(name)
		if err != nil || sc.Name != name {
			t.Errorf("ScaleByName(%q) = %+v, %v", name, sc, err)
		}
	}
	if _, err := ScaleByName("gigantic"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestSyntheticWorkloadsExactSizes(t *testing.T) {
	wls := SyntheticWorkloads([]int64{1000, 5000})
	if len(wls) != 2 || wls[0].W != 1000 || wls[1].W != 5000 {
		t.Fatalf("workloads %+v", wls)
	}
}

// TestTable2Shape runs Table 2 at tiny scale and asserts the paper-shape
// invariants: at x=0.5 the schemes coincide; the nGP-GP phase gap is
// non-negative at every threshold; efficiencies are sane.
func TestTable2Shape(t *testing.T) {
	s := tinySyntheticSuite()
	tab, err := s.Table2([]float64{0.50, 0.90})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(s.Workloads)*2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i := range tab.Rows {
		w, x := Value[int64](tab, i, "w"), Value[float64](tab, i, "x")
		ngpNlb, gpNlb := Value[int](tab, i, "ngp_nlb"), Value[int](tab, i, "gp_nlb")
		if x == 0.50 && ngpNlb != gpNlb {
			t.Errorf("W=%d x=0.5: phase counts differ (nGP %d, GP %d)", w, ngpNlb, gpNlb)
		}
		if ngpNlb < gpNlb {
			t.Errorf("W=%d x=%.2f: GP performed more phases than nGP", w, x)
		}
		for _, e := range []float64{Value[float64](tab, i, "ngp_e"), Value[float64](tab, i, "gp_e")} {
			if e <= 0 || e > 1 {
				t.Errorf("W=%d x=%.2f: efficiency %f out of range", w, x, e)
			}
		}
		if xo := Value[float64](tab, i, "xo"); xo <= 0 || xo >= 1 {
			t.Errorf("analytic trigger %f out of range", xo)
		}
	}
	if !strings.Contains(text(t, tab), "Table 2") {
		t.Error("missing table header in output")
	}
}

func TestTable3RunsAroundOptimum(t *testing.T) {
	s := tinySyntheticSuite()
	s.Workloads = s.Workloads[:1]
	tab, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for i, r := range tab.Rows {
		if x, e := Value[float64](tab, i, "x"), Value[float64](tab, i, "e"); x <= 0 || x >= 1 || e <= 0 || e > 1 {
			t.Errorf("bad row %v", r)
		}
	}
}

// TestTable4Shape asserts GP dominates nGP under both dynamic triggers.
func TestTable4Shape(t *testing.T) {
	s := tinySyntheticSuite()
	tab, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		for _, trig := range []string{"dp", "dk"} {
			gp, ngp := Value[float64](tab, i, "gp_"+trig+"_e"), Value[float64](tab, i, "ngp_"+trig+"_e")
			if gp < ngp-0.05 {
				t.Errorf("W=%d: GP-%s (%.3f) far below nGP (%.3f)", Value[int64](tab, i, "w"), trig, gp, ngp)
			}
		}
	}
}

// TestTable5Shape asserts the load-balancing-cost story: every scheme
// degrades as tlb inflates, and at 16x D^K is at least as good as D^P.
func TestTable5Shape(t *testing.T) {
	s := tinySyntheticSuite()
	tab, err := s.Table5(s.Workloads[len(s.Workloads)-1])
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(tab.Rows))
	}
	if Value[float64](tab, 0, "lb_scale") != 1 || Value[float64](tab, 2, "lb_scale") != 16 {
		t.Fatalf("scales %v %v", tab.Rows[0][0], tab.Rows[2][0])
	}
	for _, pair := range [][2]int{{0, 1}, {1, 2}} {
		if Value[float64](tab, pair[1], "dk_e") > Value[float64](tab, pair[0], "dk_e")+0.01 {
			t.Errorf("DK efficiency rose with more expensive LB: %v", tab.Rows)
		}
	}
	if dk, dp := Value[float64](tab, 2, "dk_e"), Value[float64](tab, 2, "dp_e"); dk < dp-0.01 {
		t.Errorf("at 16x cost, DK (%.3f) should not trail DP (%.3f)", dk, dp)
	}
	if Value[float64](tab, 2, "xo") >= Value[float64](tab, 0, "xo") {
		t.Error("analytic trigger should fall as LB cost rises")
	}
}

func TestTable6Prints(t *testing.T) {
	tables, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	out := text(t, tables[0]) + text(t, tables[1])
	for _, frag := range []string{"hypercube", "mesh", "log^3", "GP-S^x"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table 6 output missing %q", frag)
		}
	}
}

func TestFig1EmitsTriggerGeometry(t *testing.T) {
	s := tinySyntheticSuite()
	tables, err := s.Fig1("GP-DK", s.Workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	full := tables[1]
	if len(full.Rows) == 0 {
		t.Fatal("no samples recorded")
	}
	// R2 for DK is L*P, which is positive once a phase has run.
	positives := 0
	for i := range full.Rows {
		if Value[int64](full, i, "r2_ns") > 0 {
			positives++
		}
	}
	if positives == 0 {
		t.Error("R2 never positive; trigger geometry missing")
	}
	if !strings.Contains(text(t, tables[0]), "R1(ms)") {
		t.Error("missing column header")
	}
}

func TestFig3Derivation(t *testing.T) {
	t2 := Table{
		Columns: []Column{{"w", "W", ""}, {"x", "x", ""}, {"ngp_nlb", "", ""}, {"gp_nlb", "", ""}},
		Rows:    [][]any{{int64(1000), 0.9, 30, 20}},
	}
	if out := text(t, Fig3(t2)); !strings.Contains(out, "10") {
		t.Errorf("difference column missing:\n%s", out)
	}
}

// TestIsoGridShape runs a miniature Figure 4 grid and checks the headline
// scalability result: nGP-S0.90's isoefficiency curves grow at least as
// fast as GP-S0.90's.
func TestIsoGridShape(t *testing.T) {
	sc := TinyScale
	levels := []float64{0.50, 0.65}
	tables, err := IsoGrid("grid", []string{"GP-S0.90", "nGP-S0.90"}, sc.GridPs, sc.GridWs, sc.Workers, levels)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("%d tables, want a text table per scheme and the CSV table", len(tables))
	}
	// curve[scheme][kind][P] is a curve point's W.
	data := tables[2]
	curve := map[string]map[string]map[int]float64{}
	for i := range data.Rows {
		scheme, kind := Value[string](data, i, "scheme"), Value[string](data, i, "kind")
		if kind == "sample" {
			continue
		}
		if curve[scheme] == nil {
			curve[scheme] = map[string]map[int]float64{}
		}
		if curve[scheme][kind] == nil {
			curve[scheme][kind] = map[int]float64{}
		}
		curve[scheme][kind][Value[int](data, i, "p")] = Value[float64](data, i, "w")
	}
	for _, lv := range levels {
		kind := fmt.Sprintf("iso_%.2f", lv)
		if len(curve["GP-S0.90"][kind]) == 0 {
			t.Errorf("GP curve at E=%.2f empty", lv)
			continue
		}
		// At every shared machine size the nGP curve needs at least
		// (roughly) as much W as GP.
		for p, nw := range curve["nGP-S0.90"][kind] {
			if gw, ok := curve["GP-S0.90"][kind][p]; ok && nw < gw*0.8 {
				t.Errorf("E=%.2f P=%d: nGP needs less work (%.0f) than GP (%.0f)", lv, p, nw, gw)
			}
		}
	}
}

func TestFig8Shape(t *testing.T) {
	s := tinySyntheticSuite()
	tab, err := s.Fig8(s.Workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d series, want 4 (2 schemes x 2 costs)", len(tab.Rows))
	}
	for i, r := range tab.Rows {
		if Value[int](tab, i, "cycles") == 0 {
			t.Errorf("%v: empty series", r)
		}
	}
	if got := strings.Count(tab.Plot, "active processors"); got != 4 {
		t.Errorf("%d plots, want 4", got)
	}
}

func TestAblations(t *testing.T) {
	const w = 4000
	split, err := AblationSplitters(w, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(split.Rows) != 3 {
		t.Fatalf("splitter ablation returned %d entries", len(split.Rows))
	}
	// The deliberately poor top-node splitter should not beat bottom-node.
	if top, bottom := eff(t, split, "top-node"), eff(t, split, "bottom-node"); top > bottom+0.05 {
		t.Errorf("top-node (%.3f) beat bottom-node (%.3f)", top, bottom)
	}

	inits, err := AblationInit(w, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(inits.Rows) != 4 {
		t.Fatalf("init ablation returned %d entries", len(inits.Rows))
	}

	tr, err := AblationTransfers(w, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Per phase, the multi policy transfers at least as much as single (a
	// phase may run several matching rounds); total counts can go either
	// way because better balance needs fewer phases.
	perPhase := func(key string) float64 {
		i := rowOf(t, tr, key)
		return float64(Value[int](tr, i, "transfers")) / float64(Value[int](tr, i, "nlb"))
	}
	if perMulti, perSingle := perPhase("GP-DP-multi"), perPhase("GP-DP-single"); perMulti < perSingle {
		t.Errorf("multi-transfer DP moved less per phase (%.1f) than single (%.1f)", perMulti, perSingle)
	}

	topo, err := AblationTopology(w, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if eff(t, topo, "crossbar") < eff(t, topo, "mesh") {
		t.Error("free communication should not be less efficient than mesh costs")
	}

	heur, err := AblationHeuristic(24, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	lc, plain := Value[int64](heur, rowOf(t, heur, "manhattan+lc"), "w"), Value[int64](heur, rowOf(t, heur, "manhattan"), "w")
	if lc > plain {
		t.Errorf("linear conflict expanded more nodes (%d) than Manhattan alone (%d)", lc, plain)
	}
}

func TestBaselineAndMIMDComparisons(t *testing.T) {
	base, err := BaselineComparison(4000, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) != 5 {
		t.Fatalf("baseline comparison returned %d entries", len(base.Rows))
	}
	m, err := MIMDComparison(4000, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range m.Rows {
		if e := Value[float64](m, i, "e"); e <= 0 || e > 1 {
			t.Errorf("%s: efficiency %f out of range", r[0], e)
		}
	}
}

// TestVariance checks the instance-variance experiment: spreads are
// bounded and GP-S0.90 averages at least nGP-S0.90.
func TestVariance(t *testing.T) {
	tab, err := Variance(20000, 64, 2, 4, []string{"GP-S0.90", "nGP-S0.90"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	mean := map[string]float64{}
	for i, r := range tab.Rows {
		lo, m, hi := Value[float64](tab, i, "min_e"), Value[float64](tab, i, "mean_e"), Value[float64](tab, i, "max_e")
		if lo > m || m > hi {
			t.Errorf("%s: min/mean/max out of order: %v", r[0], r)
		}
		if sd := Value[float64](tab, i, "stddev"); sd < 0 || sd > 0.2 {
			t.Errorf("%s: implausible stddev %f", r[0], sd)
		}
		mean[Value[string](tab, i, "scheme")] = m
	}
	if mean["GP-S0.90"] < mean["nGP-S0.90"]-0.02 {
		t.Errorf("GP mean %f below nGP mean %f", mean["GP-S0.90"], mean["nGP-S0.90"])
	}
}

// TestPuzzleWorkloadsSmallTargets exercises the instance calibration on
// small tiers (fast); each workload must land within a factor of two.
func TestPuzzleWorkloadsSmallTargets(t *testing.T) {
	targets := []int64{500, 3000}
	wls := PuzzleWorkloads(targets, nil)
	if len(wls) != 2 {
		t.Fatalf("%d workloads", len(wls))
	}
	for i, wl := range wls {
		lo, hi := targets[i]/2, targets[i]*2
		if wl.W < lo || wl.W > hi {
			t.Errorf("tier %d: W=%d outside [%d, %d]", i, wl.W, lo, hi)
		}
	}
}
