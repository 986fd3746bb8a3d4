// Package stack implements the depth-first-search stack representation the
// paper uses for the part of the search space assigned to a processor
// (Section 2): the depth of the stack is the depth of the node currently
// being explored, and each level keeps the untried alternatives at that
// depth.  The working stacks of all P processors live in one Arena
// (arena.go, a flat array of per-PE records), the only representation the
// search pushes to, pops from and splits; Stack is the per-PE transport value
// that snapshots, donations and decoded payloads carry across the arena
// boundary.  A processor's unsearched space is partitioned by moving some
// of the untried alternatives to another PE's window; the package provides
// the splitting strategies ("alpha-splitting mechanisms", Section 3) the
// paper discusses: giving away the node at the bottom of the stack (the
// paper's choice for the 15-puzzle), halving every level, and the
// deliberately poor top-node splitter used for ablations.
package stack

// Stack is one PE's untried alternatives, one slice per tree level, as a
// value that crosses the arena boundary: snapshots, cross-machine
// donations and decoded checkpoint / steal-frame payloads carry stacks in
// this form.  Level 0 is the shallowest.  It is a
// transport value, not a working stack — the search pushes, pops and
// splits inside an Arena — so the only mutation is PushLevel while a
// decoder or MaterializeStack builds it.  The zero value is an empty stack.
type Stack[S any] struct {
	levels [][]S
	size   int
}

// New returns a stack seeded with the given root-level alternatives.
func New[S any](roots ...S) *Stack[S] {
	s := &Stack[S]{}
	s.PushLevel(roots)
	return s
}

// Size returns the total number of untried alternatives on the stack.
func (s *Stack[S]) Size() int { return s.size }

// Empty reports whether no untried alternatives remain.
func (s *Stack[S]) Empty() bool { return s.size == 0 }

// Depth returns the number of levels currently on the stack.
func (s *Stack[S]) Depth() int { return len(s.levels) }

// PushLevel pushes alts as a deeper level.  Empty slices are ignored.  The
// stack takes ownership of the slice.
func (s *Stack[S]) PushLevel(alts []S) {
	if len(alts) == 0 {
		return
	}
	s.levels = append(s.levels, alts)
	s.size += len(alts)
}

// ForEachLevel calls f on every level in bottom-to-top order.  The slices
// are the stack's own storage and must not be mutated; serialisers use
// this to preserve level structure without copying.
func (s *Stack[S]) ForEachLevel(f func(level []S)) {
	for _, lv := range s.levels {
		f(lv)
	}
}

// Flatten returns all untried alternatives in bottom-to-top order; it is
// intended for tests and diagnostics.
func (s *Stack[S]) Flatten() []S {
	out := make([]S, 0, s.size)
	for _, lv := range s.levels {
		out = append(out, lv...)
	}
	return out
}

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
