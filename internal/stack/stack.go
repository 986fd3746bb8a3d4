// Package stack implements the depth-first-search stack representation the
// paper uses for the part of the search space assigned to a processor
// (Section 2): the depth of the stack is the depth of the node currently
// being explored, and each level keeps the untried alternatives at that
// depth.  The stacks of all P processors live in one Arena (arena.go, a
// flat array of per-PE records), the only typed holder of a stack: the
// search pushes to, pops from and splits it, a snapshot is a Clone of it,
// and what crosses a process is its wire encoding (internal/wire), decoded
// back into a PE window through AppendLevels.  A processor's unsearched
// space is partitioned by moving some of the untried alternatives to
// another PE's window; the package provides the splitting strategies
// ("alpha-splitting mechanisms", Section 3) the paper discusses: giving
// away the node at the bottom of the stack (the paper's choice for the
// 15-puzzle), halving every level, and the deliberately poor top-node
// splitter used for ablations.
package stack

import "simdtree/internal/scan"

// A Splitter divides the work on a PE's stack into two non-empty parts,
// leaving one on the donor and appending the other above the receiver's
// top, as range copies within the arena's flat storage.  It works a block
// of a matching round at a time (a single transfer is the block of one), so
// it can take the donated nodes off every donor before it pushes any: the
// misses on the cold donors overlap, and as a round's donors and receivers
// are pairwise distinct and disjoint, no pair can observe the reordering.
// Implementations use the raw arena operations and leave the bitsets alone
// (concurrent blocks may share bitset words); the caller re-syncs the
// touched PEs (SyncBits) sequentially afterwards.
type Splitter[S any] interface {
	// Name identifies the splitter in reports.
	Name() string
	// SplitBlock splits the stack of every pair's donor and appends the
	// donated part above its receiver's top, setting moved[k] to the number
	// of nodes pair k moved.  A donor that holds fewer than two nodes, or
	// has levels evicted, is refused: both stacks stay untouched, moved[k]
	// is 0.  nodes is the caller's reusable block scratch, returned
	// (possibly grown) for the next call.
	SplitBlock(a *Arena[S], pairs []scan.Pair, moved []int, nodes []S) []S
}

// BottomNode donates the single alternative at the bottom of the stack.
// For the 15-puzzle "this appears to provide a reasonable alpha-splitting
// mechanism" (Section 5): the bottom node roots the largest untried
// subtree.
type BottomNode[S any] struct{}

// Name implements Splitter.
func (BottomNode[S]) Name() string { return "bottom-node" }

// HalfStack donates the first half of the alternatives of every level,
// approximating an alpha of one half in stack-node terms.
type HalfStack[S any] struct{}

// Name implements Splitter.
func (HalfStack[S]) Name() string { return "half-stack" }

// TopNode donates the single deepest alternative.  It is a deliberately
// poor splitting mechanism (tiny alpha) included for ablation experiments
// on splitter quality.
type TopNode[S any] struct{}

// Name implements Splitter.
func (TopNode[S]) Name() string { return "top-node" }
