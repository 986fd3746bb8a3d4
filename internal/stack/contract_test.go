package stack

import (
	"fmt"
	"slices"
	"testing"

	"simdtree/internal/knapsack"
	"simdtree/internal/puzzle"
	"simdtree/internal/queens"
	"simdtree/internal/search"
	"simdtree/internal/synthetic"
)

// reachable collects the first n nodes of a breadth-first walk from root.
func reachable[S any](expand func(S, []S) []S, root S, n int) []S {
	nodes := []S{root}
	for i := 0; i < len(nodes) && len(nodes) < n; i++ {
		nodes = expand(nodes[i], nodes)
	}
	return nodes
}

// checkAppendsOnly is the oracle for the contract the expansion kernel
// rests on (see Expander): handed a live prefix, Expand returns that prefix
// untouched and at the front, followed by exactly the successors it
// produces into a fresh buffer — whether the prefix has room behind it, has
// none (append moves it), or is nil.  It returns the number of successors
// it saw, so a caller can tell that a pruning wrapper did prune.
func checkAppendsOnly[S comparable](t *testing.T, expand func(S, []S) []S, sentinel S, nodes []S) (successors int) {
	t.Helper()
	prefix := []S{sentinel, sentinel, sentinel}
	for _, node := range nodes {
		want := expand(node, make([]S, 0, 64))
		successors += len(want)
		for _, spare := range []int{len(want) + 8, 0} {
			buf := append(make([]S, 0, len(prefix)+spare), prefix...)
			out := expand(node, buf)
			if len(out) < len(prefix) || !slices.Equal(out[:len(prefix)], prefix) || !slices.Equal(buf, prefix) {
				t.Fatalf("node %v, spare %d: prefix came back as %v (handed buffer now %v)", node, spare, out[:min(len(out), len(prefix))], buf)
			}
			if spare > 0 && &out[0] != &buf[0] {
				t.Fatalf("node %v: Expand moved a buffer that had room for its %d successors", node, len(want))
			}
			if !slices.Equal(out[len(prefix):], want) {
				t.Fatalf("node %v, spare %d: successors %v, into a fresh buffer %v", node, spare, out[len(prefix):], want)
			}
		}
		if out := expand(node, nil); !slices.Equal(out, want) {
			t.Fatalf("node %v, nil buffer: successors %v, into a fresh buffer %v", node, out, want)
		}
	}
	if successors == 0 {
		t.Fatal("no node had a successor: nothing was checked")
	}
	return successors
}

// TestExpandAppendsOnly runs the contract oracle over every Expand in the
// tree: the four domains and the two pruning wrappers.
func TestExpandAppendsOnly(t *testing.T) {
	t.Run("synthetic", func(t *testing.T) {
		tree := synthetic.New(5000, 3)
		checkAppendsOnly(t, tree.Expand, synthetic.Node{Budget: -1}, reachable(tree.Expand, tree.Root(), 300))
	})
	t.Run("queens", func(t *testing.T) {
		d := queens.New(6)
		checkAppendsOnly(t, d.Expand, queens.Node{N: 99}, reachable(d.Expand, d.Root(), 300))
	})

	start := puzzle.Scramble(11, 22)
	pz := puzzle.NewDomain(start)
	pzNodes := reachable(pz.Expand, start, 300)
	t.Run("puzzle", func(t *testing.T) {
		checkAppendsOnly(t, pz.Expand, puzzle.Node{G: 255}, pzNodes)
	})
	t.Run("bounded", func(t *testing.T) {
		b := search.NewBounded[puzzle.Node](pz, pz.F(start)+2)
		kept := checkAppendsOnly(t, b.Expand, puzzle.Node{G: 255}, pzNodes)
		if all := checkAppendsOnly(t, pz.Expand, puzzle.Node{G: 255}, pzNodes); kept >= all {
			t.Fatalf("the bound pruned nothing (%d of %d successors kept): the filter was not exercised", kept, all)
		}
	})

	kp := knapsack.Random(14, 5)
	kpNodes := reachable(kp.Expand, kp.Root(), 300)
	t.Run("knapsack", func(t *testing.T) {
		checkAppendsOnly(t, kp.Expand, knapsack.Node{Next: 9999}, kpNodes)
	})
	t.Run("dfbb", func(t *testing.T) {
		opt, _, ok := search.Optimum[knapsack.Node](kp)
		if !ok {
			t.Fatal("knapsack instance has no solution")
		}
		b := search.NewDFBB[knapsack.Node](kp)
		b.In.Offer(opt)
		kept := checkAppendsOnly(t, b.Expand, knapsack.Node{Next: 9999}, kpNodes)
		if all := checkAppendsOnly(t, kp.Expand, knapsack.Node{Next: 9999}, kpNodes); kept >= all {
			t.Fatalf("the incumbent pruned nothing (%d of %d successors kept): the filter was not exercised", kept, all)
		}
	})
}

// fanOut is a tree whose nodes spell out their own subtrees: a node has
// s&3 successors, each s>>2.
type fanOut struct{}

func (fanOut) Goal(int) bool { return false }

func (fanOut) Expand(s int, buf []int) []int {
	for i := 0; i < s&3; i++ {
		buf = append(buf, s>>2)
	}
	return buf
}

// TestExpandKernelExactCapacity: successors that exactly fill the PE's
// buffer land in it; one more moves the stack to a larger buffer, whole.
func TestExpandKernelExactCapacity(t *testing.T) {
	a := NewArena[int](1)
	const one = 1 | 2<<2 // one successor, 2, which has two, both leaves
	a.AppendLevels(0, []int{0, 0, 0, one}, []int{4})
	first := &a.pes[0].buf[0]
	if len(a.pes[0].buf) != 4 {
		t.Fatalf("AppendLevels sized the buffer to %d, want 4", len(a.pes[0].buf))
	}
	sc := new(ExpandScratch[int])
	a.ExpandCycle(fanOut{}, 0, 1, sc)
	if got := flattenPE(a, 0); fmt.Sprint(got) != "[[0 0 0] [2]]" || &a.pes[0].buf[0] != first || len(a.pes[0].buf) != 4 {
		t.Fatalf("exact fit: levels %v in a buffer of %d (moved: %v)", got, len(a.pes[0].buf), &a.pes[0].buf[0] != first)
	}
	a.ExpandCycle(fanOut{}, 0, 1, sc)
	if got := flattenPE(a, 0); fmt.Sprint(got) != "[[0 0 0] [0 0]]" || len(a.pes[0].buf) < 5 {
		t.Fatalf("one past capacity: levels %v in a buffer of %d", got, len(a.pes[0].buf))
	}
	checkBits(t, a)
	checkLevelInvariant(t, a, 0)
}

// TestExpandKernelBottomRemovalReclaimsSpace is the kernel-path twin of
// TestArenaBottomRemovalReclaimsSpace: a donor that expands through
// ExpandCycle and has its bottom node taken every cycle, for ever, must
// reach a fixed buffer size — the dead space in front of its window is
// reclaimed, not left for append to grow past.
func TestExpandKernelBottomRemovalReclaimsSpace(t *testing.T) {
	a := NewArena[int](1)
	a.PushLevel(0, []int{0, 0, 0, 0, 0, 0})
	sc := new(ExpandScratch[int])
	cycle := func() {
		// A binary node under every pop, one bottom node out: the size holds.
		a.pes[0].buf[a.pes[0].head+a.pes[0].size-1] = 2
		a.ExpandCycle(fanOut{}, 0, 1, sc)
		if _, ok := a.RemoveBottom(0); !ok || a.Size(0) != 6 {
			t.Fatalf("size %d after a cycle, want a steady 6", a.Size(0))
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	grown := len(a.pes[0].buf)
	for i := 0; i < 10000; i++ {
		cycle()
	}
	if len(a.pes[0].buf) != grown {
		t.Errorf("buffer grew from %d to %d under steady expand-and-donate churn", grown, len(a.pes[0].buf))
	}
	checkLevelInvariant(t, a, 0)
}

// shortExpand breaks the contract: it hands back less than it was given.
type shortExpand struct{ fanOut }

func (shortExpand) Expand(s int, buf []int) []int {
	if s == 7 && len(buf) > 0 {
		return buf[:len(buf)-1]
	}
	return append(buf, 0)
}

// TestExpandKernelTruncated: an Expand that returns fewer elements than it
// was handed must not cost the PE a live node.  The kernel flags it, keeps
// the stack as the pop left it, and carries on with the other PEs.
func TestExpandKernelTruncated(t *testing.T) {
	a := NewArena[int](3)
	for pe := 0; pe < 3; pe++ {
		a.PushLevel(pe, []int{4, 5, 6 + pe%2}) // PE 1 pops the 7
	}
	sc := new(ExpandScratch[int])
	if res := a.ExpandCycle(shortExpand{}, 0, 3, sc); !sc.Truncated || res.Expanded != 3 {
		t.Fatalf("got %+v, truncated %v: want three expansions, one of them truncated", res, sc.Truncated)
	}
	want := []string{"[[4 5] [0]]", "[[4 5]]", "[[4 5] [0]]"}
	for pe := 0; pe < 3; pe++ {
		if got := fmt.Sprint(flattenPE(a, pe)); got != want[pe] {
			t.Errorf("PE %d holds %s, want %s", pe, got, want[pe])
		}
		checkLevelInvariant(t, a, pe)
	}
	checkBits(t, a)
}
