// Package search defines the problem abstraction shared by the serial and
// SIMD-parallel tree searches: a tree is specified by a root node and a
// successor-generator function (Section 2 of the paper), optionally with an
// f = g + h cost estimate enabling cost-bounded search and IDA*.
//
// The serial depth-first search here provides the ground-truth problem size
// W (the number of nodes the best sequential algorithm expands, Section
// 3.1) against which parallel efficiency is computed.  Both serial and
// parallel searches run cost-bounded iterations to exhaustion — "find all
// the solutions of the puzzle up to a given tree depth" — which makes the
// serial and parallel node counts identical by construction and avoids the
// superlinear-speedup anomalies the paper excludes from its analysis.
package search

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// Domain describes a finite tree to be searched exhaustively.  Expand must
// be safe for concurrent use by multiple goroutines; node values are plain
// data.  The SIMD machine expands the PEs of a cycle in any order and on any
// goroutine, and runs a PE's cycles back to back when no load-balancing
// phase can fall between them, so Goal and Expand may depend on nothing but
// their node, or on state whose result is order-free (Bounded's smallest
// pruned f is a min).  A domain whose Goal or Expand reads what another
// node's writes implements Shared.
type Domain[S any] interface {
	// Root returns the root node of the tree.
	Root() S
	// Expand appends the successors of s to buf and returns the extended
	// slice.  Any pruning (heuristics, cost bounds) happens here.  It
	// appends only: the SIMD engine hands it a processor's live stack as
	// buf, so it never reads, writes or retains buf[:len(buf)] and returns
	// a slice that begins with those elements (a shorter one stops the run
	// with simd.ErrExpandTruncated); filtering what it appended is fine.
	Expand(s S, buf []S) []S
	// Goal reports whether s is a goal node.
	Goal(s S) bool
}

// Shared is implemented by domains whose Goal or Expand reads state that
// the Goal or Expand of another node writes, so what they return depends on
// the order of the expansions: DFBB, whose goal test lowers the incumbent
// its Expand prunes against.  The SIMD machine expands such a domain one
// cycle at a time, on one goroutine, in PE order, so its runs are the same
// for any worker count.
type Shared interface {
	// SharedState marks the domain; it does nothing.
	SharedState()
}

// CostDomain additionally exposes an admissible cost estimate, enabling
// cost-bounded search and iterative deepening.
type CostDomain[S any] interface {
	Domain[S]
	// F returns the f = g + h lower bound on the cost of any solution
	// through s.
	F(s S) int
}

// Bounded adapts a CostDomain to the cost-bounded tree IDA* searches in a
// single iteration: successors with F greater than Bound are pruned, and
// the smallest pruned F is tracked (atomically, so a SIMD machine's worker
// goroutines may share one Bounded) as the bound for the next iteration.
type Bounded[S any] struct {
	D     CostDomain[S]
	Bound int
	next  atomic.Int64
}

// NewBounded returns a cost-bounded view of d.
func NewBounded[S any](d CostDomain[S], bound int) *Bounded[S] {
	b := &Bounded[S]{D: d, Bound: bound}
	b.next.Store(math.MaxInt64)
	return b
}

// Root implements Domain.
func (b *Bounded[S]) Root() S { return b.D.Root() }

// Goal implements Domain; only nodes within the bound are generated, so
// the underlying goal test applies unchanged.
func (b *Bounded[S]) Goal(s S) bool { return b.D.Goal(s) }

// Expand implements Domain, pruning successors beyond the bound and
// recording the minimum pruned f-value.
func (b *Bounded[S]) Expand(s S, buf []S) []S {
	start := len(buf)
	buf = b.D.Expand(s, buf)
	kept := start
	for i := start; i < len(buf); i++ {
		if f := b.D.F(buf[i]); f > b.Bound {
			b.relaxNext(int64(f))
			continue
		}
		buf[kept] = buf[i]
		kept++
	}
	return buf[:kept]
}

// relaxNext lowers the recorded next bound to f if f is smaller.
func (b *Bounded[S]) relaxNext(f int64) {
	for {
		cur := b.next.Load()
		if f >= cur {
			return
		}
		if b.next.CompareAndSwap(cur, f) {
			return
		}
	}
}

// NextBound returns the smallest f-value that was pruned during the
// iteration, i.e. the cost bound for the next IDA* iteration, and whether
// any node was pruned at all.
func (b *Bounded[S]) NextBound() (int, bool) {
	v := b.next.Load()
	if v == math.MaxInt64 {
		return 0, false
	}
	return int(v), true
}

// Stateful is implemented by domains whose future behaviour depends on
// mutable state accumulated during the search — state that lives outside
// the DFS stacks and must therefore ride along in a checkpoint.  Bounded
// implements it: its smallest-pruned-f accumulator determines the next
// IDA* bound, and prunes recorded before a snapshot would otherwise be
// lost on restore.  Stateless domains (the workloads themselves) simply
// don't implement the interface.
type Stateful interface {
	// SaveState returns the domain's mutable state as a small opaque
	// payload.
	SaveState() []byte
	// RestoreState installs a payload produced by SaveState on an
	// identically configured domain.  It returns an error when the
	// payload is malformed or belongs to a differently configured domain.
	RestoreState([]byte) error
}

// SaveState implements Stateful: the configured bound (restore validates
// it, catching checkpoints applied to the wrong iteration) and the
// smallest pruned f-value so far.
func (b *Bounded[S]) SaveState() []byte {
	buf := binary.AppendVarint(nil, int64(b.Bound))
	return binary.AppendVarint(buf, b.next.Load())
}

// RestoreState implements Stateful.
func (b *Bounded[S]) RestoreState(p []byte) error {
	bound, n := binary.Varint(p)
	if n <= 0 {
		return fmt.Errorf("search: truncated bounded-domain state")
	}
	next, m := binary.Varint(p[n:])
	if m <= 0 || n+m != len(p) {
		return fmt.Errorf("search: malformed bounded-domain state")
	}
	if int(bound) != b.Bound {
		return fmt.Errorf("search: bounded-domain state is for bound %d, domain has bound %d", bound, b.Bound)
	}
	if next < 0 {
		return fmt.Errorf("search: negative next bound %d in bounded-domain state", next)
	}
	b.next.Store(next)
	return nil
}

// StateMerger is implemented by stateful domains whose state from two
// shards of one logical search can be folded together.  A distributed run
// splits a machine's PE range across nodes; each shard accumulates domain
// state independently, and merging every shard's payload reproduces the
// state a single machine would hold.
type StateMerger interface {
	Stateful
	// MergeState folds a peer shard's SaveState payload into this
	// domain's state.  It returns an error when the payload is malformed
	// or belongs to a differently configured domain.
	MergeState([]byte) error
}

// MergeState implements StateMerger: the peer's smallest pruned f-value is
// folded in with a min, which is exactly how a single shared accumulator
// would have ordered the same prunes.
func (b *Bounded[S]) MergeState(p []byte) error {
	bound, n := binary.Varint(p)
	if n <= 0 {
		return fmt.Errorf("search: truncated bounded-domain state")
	}
	next, m := binary.Varint(p[n:])
	if m <= 0 || n+m != len(p) {
		return fmt.Errorf("search: malformed bounded-domain state")
	}
	if int(bound) != b.Bound {
		return fmt.Errorf("search: bounded-domain state is for bound %d, domain has bound %d", bound, b.Bound)
	}
	if next < 0 {
		return fmt.Errorf("search: negative next bound %d in bounded-domain state", next)
	}
	b.relaxNext(next)
	return nil
}

// Result summarises a serial search.
type Result struct {
	Expanded  int64 // nodes expanded (the problem size W)
	Goals     int64 // goal nodes found
	PeakStack int   // largest stack observed, in nodes: metrics.Stats.PeakStack's serial twin
	Bound     int   // final cost bound (IDA* only)
	Iters     int   // IDA* iterations performed (IDA* only)
}

// DFS exhaustively searches d depth-first and returns the node and goal
// counts.  The domain must describe a finite tree.
func DFS[S any](d Domain[S]) Result {
	var res Result
	stk := []S{d.Root()}
	buf := make([]S, 0, 16)
	for len(stk) > 0 {
		if len(stk) > res.PeakStack {
			res.PeakStack = len(stk)
		}
		n := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		res.Expanded++
		if d.Goal(n) {
			res.Goals++
		}
		buf = d.Expand(n, buf[:0])
		stk = append(stk, buf...)
	}
	return res
}

// IDAStar runs iterative-deepening A* (Korf 1985) on d serially: repeated
// cost-bounded depth-first searches with the bound raised to the smallest
// pruned f-value, until an iteration finds a goal.  Each iteration runs to
// exhaustion, finding every solution of cost at most the bound.
// maxIters <= 0 means no iteration limit.
func IDAStar[S any](d CostDomain[S], maxIters int) Result {
	var total Result
	bound := d.F(d.Root())
	for iter := 0; maxIters <= 0 || iter < maxIters; iter++ {
		b := NewBounded(d, bound)
		r := DFS[S](b)
		total.Expanded += r.Expanded
		total.Goals += r.Goals
		total.Iters++
		total.Bound = bound
		if r.PeakStack > total.PeakStack {
			total.PeakStack = r.PeakStack
		}
		if r.Goals > 0 {
			return total
		}
		next, ok := b.NextBound()
		if !ok {
			return total // search space exhausted with no solution
		}
		bound = next
	}
	return total
}

// FinalIterationBound returns the IDA* cost bound of the iteration in
// which the first solution appears — the bound the paper's experiments
// search exhaustively — along with the number of nodes that final
// iteration expands.  It runs serial IDA* under the hood.
func FinalIterationBound[S any](d CostDomain[S]) (bound int, w int64) {
	r := IDAStar(d, 0)
	b := NewBounded(d, r.Bound)
	final := DFS[S](b)
	return r.Bound, final.Expanded
}
