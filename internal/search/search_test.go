package search

import (
	"sync"
	"testing"
)

// binTree is a complete binary tree of the given depth; leaves at maximum
// depth are goals.  It has 2^(depth+1)-1 nodes.
type binTree struct {
	depth int
}

type binNode struct {
	depth int
	id    int
}

func (t binTree) Root() binNode       { return binNode{} }
func (t binTree) Goal(n binNode) bool { return n.depth == t.depth }
func (t binTree) Expand(n binNode, buf []binNode) []binNode {
	if n.depth == t.depth {
		return buf
	}
	return append(buf,
		binNode{depth: n.depth + 1, id: n.id * 2},
		binNode{depth: n.depth + 1, id: n.id*2 + 1})
}

// costTree gives binTree a cost: f = depth.
type costTree struct{ binTree }

func (t costTree) F(n binNode) int { return n.depth }

func TestDFSCompleteBinaryTree(t *testing.T) {
	for depth := 0; depth <= 10; depth++ {
		r := DFS[binNode](binTree{depth: depth})
		wantNodes := int64(1)<<(depth+1) - 1
		wantGoals := int64(1) << depth
		if r.Expanded != wantNodes {
			t.Errorf("depth %d: expanded %d, want %d", depth, r.Expanded, wantNodes)
		}
		if r.Goals != wantGoals {
			t.Errorf("depth %d: goals %d, want %d", depth, r.Goals, wantGoals)
		}
	}
}

func TestDFSPeakStack(t *testing.T) {
	r := DFS[binNode](binTree{depth: 5})
	if r.PeakStack < 6 {
		t.Errorf("PeakStack=%d, want >= 6 nodes for a depth-5 binary tree", r.PeakStack)
	}
}

func TestBoundedPrunes(t *testing.T) {
	full := binTree{depth: 6}
	b := NewBounded[binNode](costTree{full}, 3)
	r := DFS[binNode](b)
	// The bounded tree is the complete tree of depth 3.
	if want := int64(1)<<4 - 1; r.Expanded != want {
		t.Errorf("expanded %d, want %d", r.Expanded, want)
	}
	next, ok := b.NextBound()
	if !ok || next != 4 {
		t.Errorf("NextBound = %d,%v, want 4,true", next, ok)
	}
}

func TestBoundedNextBoundAbsentWhenNothingPruned(t *testing.T) {
	b := NewBounded[binNode](costTree{binTree{depth: 2}}, 100)
	DFS[binNode](b)
	if _, ok := b.NextBound(); ok {
		t.Error("NextBound should report false when nothing was pruned")
	}
}

// TestBoundedConcurrentNextBound exercises the atomic next-bound
// accumulator from many goroutines.
func TestBoundedConcurrentNextBound(t *testing.T) {
	b := NewBounded[binNode](costTree{binTree{depth: 12}}, 5)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]binNode, 0, 2)
			stk := []binNode{b.Root()}
			for len(stk) > 0 {
				n := stk[len(stk)-1]
				stk = stk[:len(stk)-1]
				buf = b.Expand(n, buf[:0])
				stk = append(stk, buf...)
			}
		}()
	}
	wg.Wait()
	next, ok := b.NextBound()
	if !ok || next != 6 {
		t.Errorf("NextBound = %d,%v, want 6,true", next, ok)
	}
}

func TestIDAStarOnBinaryTree(t *testing.T) {
	// Goals live at depth 4 with f = 4: IDA* should iterate bounds
	// 0,1,2,3,4 and stop with goals found at bound 4.
	r := IDAStar[binNode](costTree{binTree{depth: 4}}, 0)
	if r.Bound != 4 {
		t.Errorf("final bound %d, want 4", r.Bound)
	}
	if r.Goals != 16 {
		t.Errorf("goals %d, want 16", r.Goals)
	}
	if r.Iters != 5 {
		t.Errorf("iterations %d, want 5", r.Iters)
	}
}

func TestIDAStarIterationLimit(t *testing.T) {
	r := IDAStar[binNode](costTree{binTree{depth: 10}}, 2)
	if r.Iters != 2 {
		t.Errorf("iterations %d, want 2 (limited)", r.Iters)
	}
	if r.Goals != 0 {
		t.Error("limited search should not have reached the goals")
	}
}

func TestFinalIterationBound(t *testing.T) {
	bound, w := FinalIterationBound[binNode](costTree{binTree{depth: 3}})
	if bound != 3 {
		t.Errorf("bound %d, want 3", bound)
	}
	if want := int64(1)<<4 - 1; w != want {
		t.Errorf("W = %d, want %d", w, want)
	}
}

// unsolvable is a domain with no goals at all; IDA* must terminate by
// exhaustion.
type unsolvable struct{ costTree }

func (unsolvable) Goal(binNode) bool { return false }

func TestIDAStarExhaustsUnsolvable(t *testing.T) {
	r := IDAStar[binNode](unsolvable{costTree{binTree{depth: 3}}}, 0)
	if r.Goals != 0 {
		t.Error("unsolvable domain produced goals")
	}
	if r.Bound != 3 {
		t.Errorf("final bound %d, want 3 (the deepest layer)", r.Bound)
	}
}
