// Package baselines implements the competing SIMD load-balancing schemes
// the paper discusses in Section 8, so the paper's qualitative comparisons
// can be re-run:
//
//   - FESS (Mahanti & Daniels): balance as soon as one processor is idle,
//     one transfer per phase, nGP-style matching.  The paper's analysis
//     predicts poor scalability: it performs roughly as many phases as
//     node-expansion cycles.
//   - FEGS (Mahanti & Daniels): same trigger, but each phase performs as
//     many transfers as needed to spread the nodes evenly; better balance,
//     far fewer phases, more communication per phase.
//   - Frye & Myczkowski's give-one scheme: each busy processor hands single
//     nodes to as many idle processors as it can serve — a deliberately
//     poor splitting mechanism.
//   - Frye & Myczkowski's nearest-neighbour scheme: after every cycle,
//     busy processors push work to idle direct neighbours; cheap local
//     communication, but work diffuses slowly across the machine.
package baselines

import (
	"time"

	"simdtree/internal/match"
	"simdtree/internal/simd"
	"simdtree/internal/stack"
	"simdtree/internal/topology"
	"simdtree/internal/trigger"
)

// FESS returns the FESS scheme of Mahanti and Daniels: any-idle
// triggering, single transfer round, enumeration matching.
func FESS[S any]() simd.Scheme[S] {
	return simd.Scheme[S]{
		Label:    "FESS",
		Trigger:  trigger.AnyIdle{},
		Balancer: &simd.MatchBalancer[S]{Matcher: &match.NGP{}},
		Splitter: stack.BottomNode[S]{},
	}
}

// FEGS returns the FEGS scheme of Mahanti and Daniels: any-idle
// triggering with repeated transfer rounds per phase until every idle
// processor has been served, using half-stack splits to even out the
// distribution.
func FEGS[S any]() simd.Scheme[S] {
	return simd.Scheme[S]{
		Label:    "FEGS",
		Trigger:  trigger.AnyIdle{},
		Balancer: &simd.MatchBalancer[S]{Matcher: &match.NGP{}, Multi: true},
		Splitter: stack.HalfStack[S]{},
	}
}

// GiveOneBalancer implements Frye and Myczkowski's first scheme: in one
// phase, every busy processor donates one node to each idle processor it
// is assigned, so a donor with k nodes can serve up to k-1 idle
// processors.  Transfers always move a single bottom node regardless of
// the scheme splitter.
type GiveOneBalancer[S any] struct{}

// Name implements simd.Balancer.
func (GiveOneBalancer[S]) Name() string { return "give-one" }

// Balance implements simd.Balancer.
func (GiveOneBalancer[S]) Balance(c *simd.Context[S]) (rounds, transfers int) {
	// Receivers and donors as at phase start: nothing has moved yet.
	a := c.Arena
	var receivers, donors []int
	for i := 0; i < a.P(); i++ {
		if a.Empty(i) {
			receivers = append(receivers, i)
		} else if a.Splittable(i) {
			donors = append(donors, i)
		}
	}
	if len(donors) == 0 || len(receivers) == 0 {
		return 1, 0
	}
	// Assign receivers to donors round-robin; a donor drops out once its
	// stack is no longer splittable.
	di := 0
	for _, r := range receivers {
		served := false
		for tries := 0; tries < len(donors); tries++ {
			d := donors[(di+tries)%len(donors)]
			if a.Splittable(d) {
				if c.Transfer(d, r) > 0 {
					transfers++
					served = true
					di = (di + tries + 1) % len(donors)
					break
				}
			}
		}
		if !served {
			break // no splittable donor remains
		}
	}
	return 1, transfers
}

// FryeGiveOne returns Frye and Myczkowski's give-one scheme with a static
// trigger at threshold x.
func FryeGiveOne[S any](x float64) simd.Scheme[S] {
	return simd.Scheme[S]{
		Label:    "Frye-giveone",
		Trigger:  trigger.Static{X: x},
		Balancer: GiveOneBalancer[S]{},
		Splitter: stack.BottomNode[S]{},
	}
}

// NNBalancer implements Frye and Myczkowski's nearest-neighbour scheme:
// each idle processor receives a split from the first splittable direct
// neighbour (per the machine's topology).  Communication is purely local,
// so the phase is charged a single transfer unit instead of the general
// routed cost.
type NNBalancer[S any] struct{}

// Name implements simd.Balancer.
func (NNBalancer[S]) Name() string { return "nearest-neighbour" }

// Balance implements simd.Balancer.
func (NNBalancer[S]) Balance(c *simd.Context[S]) (rounds, transfers int) {
	a := c.Arena
	p := a.P()
	for i := 0; i < p; i++ {
		if !a.Empty(i) {
			continue
		}
		for _, n := range c.Topo.Neighbors(p, i) {
			if a.Splittable(n) {
				if c.Transfer(n, i) > 0 {
					transfers++
				}
				break
			}
		}
	}
	return 1, transfers
}

// PhaseCost implements the optional simd.PhaseCoster: neighbour hops skip
// the scan setup and the general router; one transfer unit covers the
// whole lock-step exchange.
func (NNBalancer[S]) PhaseCost(costs simd.Costs, _ topology.Network, _, _ int) time.Duration {
	return time.Duration(float64(costs.TransferUnit) * costs.LBScale)
}

// NearestNeighbor returns the nearest-neighbour scheme: balance as soon
// as one processor is idle, purely local transfers.
func NearestNeighbor[S any]() simd.Scheme[S] {
	return simd.Scheme[S]{
		Label:    "Frye-NN",
		Trigger:  trigger.AnyIdle{},
		Balancer: NNBalancer[S]{},
		Splitter: stack.HalfStack[S]{},
	}
}

// All returns every baseline scheme for comparison sweeps.
func All[S any]() []simd.Scheme[S] {
	return []simd.Scheme[S]{
		FESS[S](), FEGS[S](), FryeGiveOne[S](0.75), NearestNeighbor[S](),
	}
}
