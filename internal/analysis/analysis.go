// Package analysis implements the paper's closed-form scalability results:
// the upper bounds on the number of load-balancing phases V(P) (Appendices
// A and B), the optimal static trigger xo (equation 18), the modelled
// efficiency curves (equations 12 and 15), and the isoefficiency functions
// of Table 6.  It also extracts experimental isoefficiency curves (Figures
// 4 and 7) from grids of measured (P, W, E) samples.
package analysis

import (
	"fmt"
	"math"
	"sort"
)

// LogSplit returns log base 1/(1-alpha) of w — the number of alpha-splits
// needed to reduce a work piece of size w below one unit (Appendix A).
// alpha must lie in (0, 1).
func LogSplit(w, alpha float64) float64 {
	if w <= 1 {
		return 0
	}
	return math.Log(w) / math.Log(1/(1-alpha))
}

// VBoundGP is the worst-case number of load-balancing phases after which
// every busy processor has donated at least once under GP matching with
// static threshold x: ceil(1/(1-x)) (Section 4.1).
func VBoundGP(x float64) float64 {
	if x >= 1 {
		return math.Inf(1)
	}
	// The epsilon guards against 1/(1-x) landing just above an integer
	// through floating-point noise (e.g. x=0.9 giving 10.000000000000002).
	return math.Ceil(1/(1-x) - 1e-9)
}

// VBoundNGP is the corresponding worst-case bound for nGP matching:
// log^((2x-1)/(1-x)) W in base 1/(1-alpha) for x > 0.5, and 1 otherwise
// (Appendix B, equation 23).
func VBoundNGP(x, w, alpha float64) float64 {
	if x <= 0.5 {
		return 1
	}
	if x >= 1 {
		return math.Inf(1)
	}
	k := (2*x - 1) / (1 - x)
	return math.Pow(LogSplit(w, alpha), k)
}

// OptimalStaticTrigger evaluates equation 18:
//
//	xo = 1 / (sqrt(P/W * log_{1/(1-alpha)} W * tlb/Ucalc) + 1)
//
// the static threshold that maximises modelled efficiency for GP matching.
// ratio is tlb/Ucalc (13/30 for the paper's CM-2 runs).
func OptimalStaticTrigger(w, p, ratio, alpha float64) float64 {
	if w <= 1 || p <= 0 || ratio <= 0 {
		return 1
	}
	inner := p / w * LogSplit(w, alpha) * ratio
	return 1 / (math.Sqrt(inner) + 1)
}

// ModelEfficiency evaluates the modelled efficiency of a static-trigger
// scheme (equations 12 and 15):
//
//	E = 1 / ( 1/(x+delta) + P * V * log_{1/(1-alpha)}W * tlb / (W*Ucalc) )
//
// where V is the scheme's phase bound (VBoundGP or VBoundNGP), delta the
// average active-fraction surplus over x (0 is the paper's conservative
// choice), and ratio = tlb/Ucalc.  The total phase count V * logW is
// clamped at the number of node-expansion cycles W/((x+delta)*P) — the
// paper's Section 4.2 saturation remark: "the number of load balancing
// cycles ... are bounded from above by the number of node expansion
// cycles".
func ModelEfficiency(x, delta, w, p, v, ratio, alpha float64) float64 {
	if x+delta <= 0 {
		return 0
	}
	phases := v * LogSplit(w, alpha)
	if cycles := w / ((x + delta) * p); phases > cycles {
		phases = cycles
	}
	denom := 1/(x+delta) + p*phases*ratio/w
	if denom <= 0 {
		return 0
	}
	return 1 / denom
}

// RequiredW inverts the efficiency model: the smallest problem size W
// that sustains efficiency e on p processors under matcher ("GP" or
// "nGP") with static threshold x, cost ratio tlb/Ucalc and splitting
// quality alpha.  It reports false when the target is unreachable (the
// model caps efficiency at x+delta with delta = 0 here, minus the
// balancing overhead).  This is the capacity-planning question the
// isoefficiency analysis answers: "how big must my problem be?"
func RequiredW(e, p float64, matcher string, x, ratio, alpha float64) (float64, bool) {
	if e <= 0 || e >= x {
		return 0, false
	}
	eff := func(w float64) float64 {
		v := VBoundGP(x)
		if matcher == "nGP" {
			v = VBoundNGP(x, w, alpha)
		}
		return ModelEfficiency(x, 0, w, p, v, ratio, alpha)
	}
	lo, hi := 2.0, 2.0
	for iter := 0; eff(hi) < e; iter++ {
		hi *= 4
		if iter > 120 {
			return 0, false // not reachable within any sane problem size
		}
	}
	for iter := 0; iter < 200 && hi/lo > 1.0001; iter++ {
		mid := math.Sqrt(lo * hi)
		if eff(mid) < e {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, true
}

// Iso is a symbolic isoefficiency function W = O(P^PPower * log^LogPower P).
type Iso struct {
	PPower   float64
	LogPower float64
}

// String renders the isoefficiency in the paper's O-notation.
func (i Iso) String() string {
	p := "P"
	// Exact: powers are assigned from literals (tlbPowers), never computed.
	if i.PPower != 1 {
		p = fmt.Sprintf("P^%.2g", i.PPower)
	}
	switch {
	case i.LogPower == 0:
		return fmt.Sprintf("O(%s)", p)
	// Exact: log powers are sums of literals; 1 is representable exactly.
	case i.LogPower == 1:
		return fmt.Sprintf("O(%s log P)", p)
	default:
		return fmt.Sprintf("O(%s log^%.3g P)", p, i.LogPower)
	}
}

// Eval returns the isoefficiency function's value at machine size p (up to
// its hidden constant, taken as 1).
func (i Iso) Eval(p float64) float64 {
	if p < 2 {
		p = 2
	}
	return math.Pow(p, i.PPower) * math.Pow(math.Log2(p), i.LogPower)
}

// tlbPowers returns the (P-power, log-power) of the load-balancing cost
// tlb on the named topology (Section 3.3): hypercube O(log^2 P), mesh
// O(sqrt P), cm2/crossbar O(1).
func tlbPowers(topoName string) (pPow, logPow float64, err error) {
	switch topoName {
	case "hypercube":
		return 0, 2, nil
	case "mesh":
		return 0.5, 0, nil
	case "cm2", "crossbar":
		return 0, 0, nil
	}
	return 0, 0, fmt.Errorf("analysis: unknown topology %q", topoName)
}

// IsoStatic returns the isoefficiency function of <matcher>-S^x on the
// named topology, from the paper's master relation W = O(P*V(P)*logW*tlb)
// (equation 10 generalised to non-constant tlb).  For nGP the V(P) bound
// contributes log^((2x-1)/(1-x)) P extra (approximating log W by log P, as
// the paper does below equation 9).  With the CM-2's constant-cost
// communication this reproduces the O(P log P) result of Sections 4.1-4.2;
// with hypercube and mesh costs it reproduces Table 6.
func IsoStatic(matcher string, x float64, topoName string) (Iso, error) {
	pPow, logPow, err := tlbPowers(topoName)
	if err != nil {
		return Iso{}, err
	}
	iso := Iso{PPower: 1 + pPow, LogPower: 1 + logPow}
	switch matcher {
	case "GP":
	case "nGP":
		if x > 0.5 {
			iso.LogPower += (2*x - 1) / (1 - x)
		}
	default:
		return Iso{}, fmt.Errorf("analysis: unknown matcher %q", matcher)
	}
	return iso, nil
}

// Table6Row is one cell row of the paper's Table 6.
type Table6Row struct {
	Topology string
	NGP      string // nGP-S^x column (x as a symbolic parameter)
	GP       string // GP-S^x column
}

// Table6 reproduces the paper's Table 6 symbolically (for x >= 0.5): the
// isoefficiencies of the two matching schemes on hypercube and mesh.
func Table6() []Table6Row {
	return []Table6Row{
		{
			Topology: "hypercube",
			NGP:      "O(P log^((2x-1)/(1-x)+3) P)",
			GP:       "O(P log^3 P)",
		},
		{
			Topology: "mesh",
			NGP:      "O(P^1.5 log^((2x-1)/(1-x)+1) P)",
			GP:       "O(P^1.5 log P)",
		},
		{
			Topology: "cm2",
			NGP:      "O(P log^((2x-1)/(1-x)+1) P)",
			GP:       "O(P log P)",
		},
	}
}

// Sample is one experimental measurement: machine size, problem size, and
// the efficiency the run achieved.
type Sample struct {
	P int
	W int64
	E float64
}

// Point is one point of an experimental isoefficiency curve.
type Point struct {
	P int
	W float64 // smallest problem size sustaining the target efficiency at P
}

// IsoCurves extracts experimental isoefficiency curves from a grid of
// samples, as the paper did for Figures 4 and 7: for each target
// efficiency level and each machine size, the smallest W whose measured
// efficiency reaches the level (log-linearly interpolated between the
// bracketing samples).  Machine sizes whose entire sample column stays
// below a level are absent from that level's curve.
func IsoCurves(samples []Sample, levels []float64) map[float64][]Point {
	// Group by P, sort each column by W.
	byP := map[int][]Sample{}
	for _, s := range samples {
		byP[s.P] = append(byP[s.P], s)
	}
	var ps []int
	for p := range byP {
		ps = append(ps, p)
		sort.Slice(byP[p], func(i, j int) bool { return byP[p][i].W < byP[p][j].W })
	}
	sort.Ints(ps)

	out := make(map[float64][]Point, len(levels))
	for _, level := range levels {
		var curve []Point
		for _, p := range ps {
			col := byP[p]
			w, ok := interpolateW(col, level)
			if ok {
				curve = append(curve, Point{P: p, W: w})
			}
		}
		out[level] = curve
	}
	return out
}

// interpolateW finds the smallest W in a (sorted) sample column whose
// efficiency reaches level, interpolating log W linearly in E between the
// first bracketing pair.  Efficiency is treated as monotone in W, which
// holds for these schemes up to experimental noise; non-monotone dips are
// skipped by scanning for the first crossing.
func interpolateW(col []Sample, level float64) (float64, bool) {
	for i, s := range col {
		if s.E < level {
			continue
		}
		if i == 0 || col[i-1].E >= level {
			return float64(s.W), true
		}
		lo, hi := col[i-1], s
		t := (level - lo.E) / (hi.E - lo.E)
		lw := math.Log(float64(lo.W)) + t*(math.Log(float64(hi.W))-math.Log(float64(lo.W)))
		return math.Exp(lw), true
	}
	return 0, false
}

// FitPLogP fits the curve W = c * P*log2(P) to points by least squares on
// c, returning c and the coefficient of determination R^2 (1 means the
// curve is exactly O(P log P)-shaped, the paper's verdict for GP).
func FitPLogP(points []Point) (c, r2 float64) {
	if len(points) == 0 {
		return 0, 0
	}
	var sxy, sxx float64
	for _, pt := range points {
		x := float64(pt.P) * math.Log2(float64(pt.P))
		sxy += x * pt.W
		sxx += x * x
	}
	if sxx == 0 {
		return 0, 0
	}
	c = sxy / sxx
	var mean float64
	for _, pt := range points {
		mean += pt.W
	}
	mean /= float64(len(points))
	var ssRes, ssTot float64
	for _, pt := range points {
		x := float64(pt.P) * math.Log2(float64(pt.P))
		d := pt.W - c*x
		ssRes += d * d
		dm := pt.W - mean
		ssTot += dm * dm
	}
	if ssTot == 0 {
		return c, 1
	}
	return c, 1 - ssRes/ssTot
}

// GrowthExponent estimates the power b in W ~ a * (P log2 P)^b for a
// curve, by least-squares on the log-log form.  b near 1 confirms
// O(P log P) isoefficiency; b substantially above 1 indicates the
// super-(P log P) growth the paper reports for nGP at high thresholds.
func GrowthExponent(points []Point) (b float64, ok bool) {
	if len(points) < 2 {
		return 0, false
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(points))
	for _, pt := range points {
		x := math.Log(float64(pt.P) * math.Log2(float64(pt.P)))
		y := math.Log(pt.W)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, false
	}
	return (n*sxy - sx*sy) / den, true
}
