package server

import (
	"math"
	"strconv"
	"strings"

	"simdtree/internal/analysis"
	"simdtree/internal/puzzle"
	"simdtree/internal/queens"
	"simdtree/internal/simd"
	"simdtree/internal/synthetic"
	"simdtree/internal/topology"
	"simdtree/internal/wire"
)

// estimate prices a canonical job spec before anything runs: a predicted
// tree size, the paper's modelled efficiency for the spec's scheme and
// topology (equations 12/15), and the resulting parallel cycle count.
// The point is weighted admission, not precision — the tree-size models
// for the search domains are order-of-magnitude planning signals (the
// synthetic domain is exact by construction), and the docs say so.
type estimate struct {
	// W is the predicted number of node expansions.
	W float64
	// Cycles is the predicted parallel running time in node-expansion
	// cycle equivalents: W / (P * Efficiency).
	Cycles float64
	// Efficiency is the modelled efficiency E(W, P) of the spec's scheme
	// on its topology.
	Efficiency float64
	// Exact marks a W that is declared rather than modelled (synthetic).
	Exact bool
	// BudgetCapped marks a prediction truncated by the spec's cycle
	// budget: the job will stop exhausted near Cycles, having expanded
	// roughly W nodes.
	BudgetCapped bool
	// PeakResidentBytes is the predicted peak bytes of stack storage the
	// job keeps in memory when run unbounded: P stacks of the domain's
	// modelled depth and level width, at the wire codec's per-node size.
	// A caller (or the frontend itself, Config.MemLimit) compares it
	// against a node's -mem-budget to decide whether the job needs a
	// mem_budget of its own before admission.
	PeakResidentBytes int64
}

// estimateAlpha is the splitting-quality assumption feeding the phase
// bounds, the paper's conservative choice.
const estimateAlpha = 0.5

// forSpec estimates a canonical spec.  It never fails: unknown shapes
// fall back to pessimistic defaults, because the caller only needs a
// admission weight.
func forSpec(spec JobSpec) estimate {
	est := estimate{}
	est.W, est.Exact = predictW(spec)

	p := float64(spec.P)
	if p < 1 {
		p = 1
	}
	ratio := costRatio(spec)
	x, matcher := schemeParams(spec.Scheme, est.W, p, ratio)
	v := analysis.VBoundGP(x)
	if matcher == "nGP" {
		v = analysis.VBoundNGP(x, est.W, estimateAlpha)
	}
	est.Efficiency = analysis.ModelEfficiency(x, 0, est.W, p, v, ratio, estimateAlpha)
	if est.Efficiency < 0.01 {
		// The model can collapse for tiny W on huge P; floor it so the
		// derived cycle count stays finite and the cost weight sane.
		est.Efficiency = 0.01
	}
	est.Cycles = est.W / (p * est.Efficiency)

	if spec.BudgetCycles > 0 && est.Cycles > float64(spec.BudgetCycles) {
		est.BudgetCapped = true
		est.Cycles = float64(spec.BudgetCycles)
		est.W = est.Cycles * p * est.Efficiency
	}
	est.PeakResidentBytes = predictPeakResidentBytes(spec, est.W)
	return est
}

// predictPeakResidentBytes models the job's peak resident stack bytes:
// every PE holds a DFS stack of the domain's depth, each level carrying
// the untried sibling alternatives, encoded at the wire codec's per-node
// size.  Like predictW it is an order-of-magnitude planning signal — the
// total is clamped by the tree size, since the stacks can never hold more
// than the generated frontier.
func predictPeakResidentBytes(spec JobSpec, w float64) int64 {
	depth, width := 20.0, 3.0
	nodeBytes := wire.NodeSize[puzzle.Node](wire.PuzzleCodec{}, puzzle.Goal())
	switch spec.Domain {
	case "synthetic":
		depth = math.Log2(w + 2)
		width = 4
		nodeBytes = wire.NodeSize[synthetic.Node](wire.SyntheticCodec{}, synthetic.Node{Budget: int64(w)})
	case "queens":
		n := 8.0
		if spec.Queens != nil && spec.Queens.N > 0 {
			n = float64(spec.Queens.N)
		}
		depth, width = n, n/2+1
		nodeBytes = wire.NodeSize[queens.Node](wire.QueensCodec{}, queens.Node{})
	case "puzzle":
		depth = 40
		if spec.Puzzle != nil {
			switch {
			case spec.Puzzle.Bound > 0:
				depth = float64(spec.Puzzle.Bound)
			case spec.Puzzle.Steps > 0:
				depth = float64(spec.Puzzle.Steps)
			}
		}
	}
	p := float64(spec.P)
	if p < 1 {
		p = 1
	}
	nodes := p * depth * width
	if limit := 3*w + p; nodes > limit {
		nodes = limit
	}
	return int64(nodes) * int64(nodeBytes)
}

// CostUnits converts a predicted tree size into DRR cost units:
// W/costScale, clamped to [1/16, 16] so a wild misestimate can
// neither starve a tenant nor let one ride free.
func (e estimate) CostUnits() float64 {
	c := e.W / costScale
	if c < 1.0/16 {
		c = 1.0 / 16
	}
	if c > 16 {
		c = 16
	}
	return c
}

// costScale is the predicted node-expansion count worth one DRR
// cost unit.
const costScale = 1e6

// predictW models the search-tree size of a spec.
//
//   - synthetic: W is declared in the spec — exact.
//   - queens: a branching-decay product, prod_i max(1, n - 1.5i): each
//     placed queen attacks away roughly a column and a half of the next
//     row's candidates.  Within ~4x of the measured tree up to n=13.
//   - puzzle: the final IDA* iteration grows geometrically in the bound;
//     2^(0.75*steps) for scrambles (the walk length bounds the solution
//     depth), 2^(0.7*bound) for explicit boards with a bound, and a flat
//     1e6 guess otherwise.
func predictW(spec JobSpec) (w float64, exact bool) {
	switch spec.Domain {
	case "synthetic":
		if spec.Synthetic != nil && spec.Synthetic.W > 0 {
			return float64(spec.Synthetic.W), true
		}
		return 1, true
	case "queens":
		n := 8
		if spec.Queens != nil && spec.Queens.N > 0 {
			n = spec.Queens.N
		}
		w := 1.0
		for i := 0; i < n; i++ {
			b := float64(n) - 1.5*float64(i)
			if b > 1 {
				w *= b
			}
		}
		return w, false
	case "puzzle":
		if spec.Puzzle != nil {
			if len(spec.Puzzle.Tiles) == 16 {
				if spec.Puzzle.Bound > 0 {
					return clampW(math.Pow(2, 0.7*float64(spec.Puzzle.Bound))), false
				}
				return 1e6, false
			}
			if spec.Puzzle.Steps > 0 {
				return clampW(math.Pow(2, 0.75*float64(spec.Puzzle.Steps))), false
			}
		}
		return 1e6, false
	}
	// Injected domains (test runners): no model, neutral weight.
	return 1e6, false
}

func clampW(w float64) float64 {
	if w < 100 {
		return 100
	}
	if w > 1e9 {
		return 1e9
	}
	return w
}

// costRatio is tlb/Ucalc on the spec's topology at its machine size — the
// overhead term of the efficiency model.  Unresolvable topologies fall
// back to the paper's CM-2 constant.
func costRatio(spec JobSpec) float64 {
	costs := simd.CM2Costs()
	net, err := topology.ByName(spec.Topology)
	if err != nil {
		return 13.0 / 30.0
	}
	p := spec.P
	if p < 1 {
		p = 1
	}
	return float64(costs.PhaseCost(net, p, 1)) / float64(costs.NodeExpansion)
}

// schemeParams extracts the matcher and effective static threshold of a
// scheme label ("GP-S0.90", "nGP-DK", ...).  Dynamic triggers (D^P, D^K)
// track the optimum at run time, so they are priced at the model's
// optimal static trigger xo (equation 18); unparsable labels are priced
// as GP at xo.
func schemeParams(label string, w, p, ratio float64) (x float64, matcher string) {
	matcher = "GP"
	trig := ""
	if i := strings.Index(label, "-"); i >= 0 {
		if label[:i] == "nGP" {
			matcher = "nGP"
		}
		trig = label[i+1:]
	}
	if strings.HasPrefix(trig, "S") {
		if v, err := strconv.ParseFloat(trig[1:], 64); err == nil && v > 0 && v < 1 {
			return v, matcher
		}
	}
	return analysis.OptimalStaticTrigger(w, p, ratio, estimateAlpha), matcher
}
