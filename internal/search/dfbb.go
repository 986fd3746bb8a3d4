package search

import (
	"math"
	"sync/atomic"
)

// OptimizationDomain describes a minimisation problem searched by
// depth-first branch-and-bound (DFBB), one of the depth-first tree search
// algorithms the paper names alongside IDA* and backtracking (Section 2).
// Costs are int64; maximisation problems negate their objective.
type OptimizationDomain[S any] interface {
	// Root returns the root of the branching tree.
	Root() S
	// Expand appends the successors of s to buf.  Bound-based pruning is
	// done by the DFBB adapter, not here.
	Expand(s S, buf []S) []S
	// Complete reports whether s is a complete solution.
	Complete(s S) bool
	// Cost returns the objective value of a complete solution.
	Cost(s S) int64
	// LowerBound returns an admissible lower bound on the cost of any
	// completion of s (for complete s it must equal Cost(s) or less).
	LowerBound(s S) int64
}

// Incumbent is the shared best-solution cost of a branch-and-bound run.
// It is updated atomically, so the SIMD machine's worker goroutines and
// the MIMD simulator can share one incumbent.
type Incumbent struct {
	best atomic.Int64
}

// NewIncumbent returns an incumbent initialised to +infinity.
func NewIncumbent() *Incumbent {
	in := &Incumbent{}
	in.best.Store(math.MaxInt64)
	return in
}

// Best returns the best (smallest) cost offered so far, or math.MaxInt64
// if none.
func (in *Incumbent) Best() int64 { return in.best.Load() }

// Offer lowers the incumbent to c if c improves on it, reporting whether
// it did.
func (in *Incumbent) Offer(c int64) bool {
	for {
		cur := in.best.Load()
		if c >= cur {
			return false
		}
		if in.best.CompareAndSwap(cur, c) {
			return true
		}
	}
}

// DFBB adapts an OptimizationDomain to the Domain interface: subtrees
// whose lower bound cannot improve on the shared incumbent are pruned,
// and complete solutions update the incumbent via the goal test.
//
// Because pruning power depends on how early good incumbents are found,
// the number of nodes DFBB expands depends on the exploration order: a
// parallel search may expand fewer nodes than the serial one
// (acceleration anomaly) or more (deceleration anomaly).  This is exactly
// the effect the paper excludes from its efficiency study (Section 3) and
// the reason its experiments use exhaustive bounded searches; the DFBB
// adapter exists to make those anomalies observable (see the anomalies
// experiment).
type DFBB[S any] struct {
	D OptimizationDomain[S]
	// In is the shared incumbent; NewDFBB initialises it.
	In *Incumbent
}

// NewDFBB returns a branch-and-bound view of d with a fresh incumbent.
func NewDFBB[S any](d OptimizationDomain[S]) *DFBB[S] {
	return &DFBB[S]{D: d, In: NewIncumbent()}
}

// Root implements Domain.
func (b *DFBB[S]) Root() S { return b.D.Root() }

// Goal implements Domain: complete solutions that improve the incumbent
// count as goals (and tighten the bound for everyone).
func (b *DFBB[S]) Goal(s S) bool {
	if !b.D.Complete(s) {
		return false
	}
	return b.In.Offer(b.D.Cost(s))
}

// SharedState implements Shared: the incumbent the goal test lowers is
// what Expand prunes against.
func (*DFBB[S]) SharedState() {}

// Expand implements Domain with incumbent-based pruning.
func (b *DFBB[S]) Expand(s S, buf []S) []S {
	start := len(buf)
	buf = b.D.Expand(s, buf)
	best := b.In.Best()
	kept := start
	for i := start; i < len(buf); i++ {
		if b.D.LowerBound(buf[i]) >= best {
			continue
		}
		buf[kept] = buf[i]
		kept++
	}
	return buf[:kept]
}

// Optimum runs serial DFBB to completion and returns the optimal cost and
// the number of nodes expanded (the serial W, order-dependent).  ok is
// false when no complete solution exists.
func Optimum[S any](d OptimizationDomain[S]) (cost int64, expanded int64, ok bool) {
	b := NewDFBB(d)
	r := DFS[S](b)
	best := b.In.Best()
	return best, r.Expanded, best != math.MaxInt64
}
