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
// none (append moves it), is nil, or sits in a home window of an arena with
// the neighbouring PEs' windows full.  It returns the number of successors
// it saw, so a caller can tell that a pruning wrapper did prune.
func checkAppendsOnly[S comparable](t *testing.T, expand func(S, []S) []S, sentinel S, nodes []S) (successors int) {
	t.Helper()
	prefix := []S{sentinel, sentinel, sentinel}
	fill := func(w []S) {
		for i := range w {
			w[i] = sentinel
		}
	}
	notSentinel := func(s S) bool { return s != sentinel }
	a := NewArena[S](3)
	left, _ := a.window(0)
	win, _ := a.window(1)
	right, _ := a.window(2)
	fill(left)
	fill(right)
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
		// The prefix in a home window between two full ones: successors that
		// exactly fill the window and one more than that — which must move
		// the stack out — write no slot of the neighbours.
		for past := 0; past <= 1; past++ {
			n := homeNodes - len(want) + past
			if n < 0 || n > homeNodes {
				continue
			}
			clear(win)
			buf := win[:n]
			fill(buf)
			out := expand(node, buf)
			if len(out) != n+len(want) || slices.ContainsFunc(out[:n], notSentinel) || !slices.Equal(out[n:], want) {
				t.Fatalf("node %v, window with %d of %d slots live: got %v, want the prefix and %v", node, n, homeNodes, out, want)
			}
			// (A pruning wrapper may move at the exact fit too: it appends what
			// it then filters out.  TestExpandKernelLeavesHome pins staying.)
			if past == 1 && &out[0] == &win[0] {
				t.Fatalf("node %v: %d nodes came back in a window of %d", node, len(out), homeNodes)
			}
			if slices.ContainsFunc(left, notSentinel) || slices.ContainsFunc(right, notSentinel) {
				t.Fatalf("node %v, window with %d of %d slots live: neighbours now %v and %v", node, n, homeNodes, left, right)
			}
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
	oneCycle(a, fanOut{}, 0, 1, sc)
	if got := flattenPE(a, 0); fmt.Sprint(got) != "[[0 0 0] [2]]" || &a.pes[0].buf[0] != first || len(a.pes[0].buf) != 4 {
		t.Fatalf("exact fit: levels %v in a buffer of %d (moved: %v)", got, len(a.pes[0].buf), &a.pes[0].buf[0] != first)
	}
	oneCycle(a, fanOut{}, 0, 1, sc)
	if got := flattenPE(a, 0); fmt.Sprint(got) != "[[0 0 0] [0 0]]" || len(a.pes[0].buf) < 5 {
		t.Fatalf("one past capacity: levels %v in a buffer of %d", got, len(a.pes[0].buf))
	}
	checkBits(t, a)
	checkLevelInvariant(t, a, 0)
}

// TestExpandKernelLeavesHome is the same pair of cycles on a PE in its home
// window, between two windows full of sentinels: the exact fit stays home,
// one past moves the stack to the heap whole, and the window it leaves is
// zeros again with the neighbours untouched.
func TestExpandKernelLeavesHome(t *testing.T) {
	a := NewArena[int](3)
	left, _ := a.window(0)
	right, _ := a.window(2)
	for i := range left {
		left[i], right[i] = -1, -1
	}
	const two = 2         // two successors, both leaves
	const a2 = 2 | two<<2 // two successors, both two
	a.PushLevel(1, []int{0, 0, 0, 0, 0, 0, a2})
	win, _ := a.window(1)
	if &a.pes[1].buf[0] != &win[0] || cap(a.pes[1].buf) != homeNodes {
		t.Fatalf("a first push of 7 nodes is not in the home window (buffer capacity %d)", cap(a.pes[1].buf))
	}
	sc := new(ExpandScratch[int])
	oneCycle(a, fanOut{}, 0, 3, sc)
	if got := flattenPE(a, 1); fmt.Sprint(got) != "[[0 0 0 0 0 0] [2 2]]" || &a.pes[1].buf[0] != &win[0] {
		t.Fatalf("exact fit: levels %v (left home: %v)", got, &a.pes[1].buf[0] != &win[0])
	}
	oneCycle(a, fanOut{}, 0, 3, sc)
	if got := flattenPE(a, 1); fmt.Sprint(got) != "[[0 0 0 0 0 0] [2] [0 0]]" || &a.pes[1].buf[0] == &win[0] {
		t.Fatalf("one past the window: levels %v (still home: %v)", got, &a.pes[1].buf[0] == &win[0])
	}
	if fmt.Sprint(win) != fmt.Sprint(make([]int, homeNodes)) {
		t.Errorf("the window the stack left holds %v, want zeros", win)
	}
	for i := range left {
		if left[i] != -1 || right[i] != -1 {
			t.Fatalf("neighbour windows now %v and %v", left, right)
		}
	}
	checkBits(t, a)
	checkLevelInvariant(t, a, 1)
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
		oneCycle(a, fanOut{}, 0, 1, sc)
		_, ok := a.removeBottomRaw(0)
		a.SyncBits(0)
		if !ok || a.Size(0) != 6 {
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
	if res := oneCycle(a, shortExpand{}, 0, 3, sc); !res.Truncated || res.Expanded != 3 {
		t.Fatalf("got %+v: want three expansions, one of them truncated", res)
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
