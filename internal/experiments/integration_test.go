package experiments

import (
	"testing"

	"simdtree/internal/synthetic"
)

// TestQuickScaleIntegration runs a slice of the quick-scale suite end to
// end (seconds, skipped under -short) and asserts the paper's headline
// numbers hold at that scale: GP-S0.90 and GP-DK reach high efficiency on
// a 250k-node problem over 256 processors, and nGP trails GP.
func TestQuickScaleIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale integration skipped in -short mode")
	}
	s := &Suite[synthetic.Node]{
		Workloads: SyntheticWorkloads([]int64{250_000}),
		P:         256,
		Workers:   2,
	}
	t2, err := s.Table2([]float64{0.50, 0.90})
	if err != nil {
		t.Fatal(err)
	}
	at90 := rowOf(t, t2, int64(250_000)) + 1 // the x = 0.90 row follows x = 0.50
	gpE, ngpE := Value[float64](t2, at90, "gp_e"), Value[float64](t2, at90, "ngp_e")
	if gpE < 0.80 {
		t.Errorf("GP-S0.90 efficiency %.3f at W=250k/P=256, want >= 0.80", gpE)
	}
	if gpE < ngpE {
		t.Errorf("GP (%.3f) below nGP (%.3f) at x=0.9", gpE, ngpE)
	}
	if gp, ngp := Value[int](t2, at90, "gp_nlb"), Value[int](t2, at90, "ngp_nlb"); gp > ngp {
		t.Errorf("GP phases (%d) exceed nGP's (%d)", gp, ngp)
	}

	t4, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if e := Value[float64](t4, 0, "gp_dk_e"); e < 0.80 {
		t.Errorf("GP-DK efficiency %.3f, want >= 0.80 (dynamic tracks optimal static)", e)
	}
}
