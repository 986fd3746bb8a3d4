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

// A Splitter divides the work on one PE's stack into two non-empty parts,
// leaving one on the donor and appending the other above the receiver's
// top, as range copies within the arena's flat storage.  Implementations
// run on the raw arena operations and do not update the arena bitsets:
// concurrent transfers of different PE pairs may share bitset words, so
// the caller re-syncs the two touched PEs (SyncBits) sequentially
// afterwards.  The donor must be fully resident and splittable; callers
// guard with Arena.Splittable.
type Splitter[S any] interface {
	// Name identifies the splitter in reports.
	Name() string
	// SplitArena splits PE from's work and appends the donated part above
	// PE to's top, returning the number of nodes moved.
	SplitArena(a *Arena[S], from, to int) int
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
