package synthetic

import (
	"testing"
	"testing/quick"

	"simdtree/internal/search"
)

// TestExactNodeCount property-checks the package's central guarantee: a
// tree built with budget w contains exactly w nodes.
func TestExactNodeCount(t *testing.T) {
	f := func(seed uint64, wRaw uint16) bool {
		w := int64(wRaw)%5000 + 1
		r := search.DFS[Node](New(w, seed))
		return r.Expanded == w && r.Goals == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	a := search.DFS[Node](New(12345, 9))
	b := search.DFS[Node](New(12345, 9))
	if a != b {
		t.Error("synthetic tree traversal is not deterministic")
	}
}

func TestSeedsDiffer(t *testing.T) {
	// Different seeds should give different tree shapes (same size).
	a := search.DFS[Node](New(50000, 1))
	b := search.DFS[Node](New(50000, 2))
	if a.Expanded != 50000 || b.Expanded != 50000 {
		t.Fatal("wrong sizes")
	}
	if a.PeakStack == b.PeakStack {
		t.Log("peak stacks happen to agree; checking another seed")
		c := search.DFS[Node](New(50000, 3))
		if a.PeakStack == c.PeakStack && b.PeakStack == c.PeakStack {
			t.Error("three different seeds produced identical peak stacks; shapes suspiciously identical")
		}
	}
}

// TestDepthLogarithmic checks the construction keeps the DFS stack, in
// nodes (what a processor holds in an engine run), far below W.
func TestDepthLogarithmic(t *testing.T) {
	for _, w := range []int64{1000, 100000, 1000000} {
		r := search.DFS[Node](New(w, 4))
		if int64(r.PeakStack) > w/10 && r.PeakStack > 200 {
			t.Errorf("W=%d: peak stack %d nodes is not logarithmic-ish", w, r.PeakStack)
		}
	}
}

func TestDegenerateSizes(t *testing.T) {
	for _, w := range []int64{0, 1, 2, 3} {
		want := w
		if want < 1 {
			want = 1
		}
		r := search.DFS[Node](New(w, 7))
		if r.Expanded != want {
			t.Errorf("W=%d: expanded %d, want %d", w, r.Expanded, want)
		}
	}
}

// TestBudgetsConserved checks that a node's children budgets sum to its
// budget minus one (the node itself).
func TestBudgetsConserved(t *testing.T) {
	tr := New(100000, 11)
	var check func(n Node, depth int)
	nodes := 0
	check = func(n Node, depth int) {
		if nodes > 5000 { // sample the top of the tree
			return
		}
		nodes++
		children := tr.Expand(n, nil)
		if n.Budget == 1 && len(children) != 0 {
			t.Fatal("leaf with children")
		}
		var sum int64
		for _, c := range children {
			if c.Budget < 1 {
				t.Fatalf("child with budget %d", c.Budget)
			}
			sum += c.Budget
		}
		if len(children) > 0 && sum != n.Budget-1 {
			t.Fatalf("budget leak: parent %d, children sum %d", n.Budget, sum)
		}
		for _, c := range children {
			check(c, depth+1)
		}
	}
	check(tr.Root(), 0)
}

// TestIrregularity confirms sibling subtree sizes differ wildly — the
// "highly unstructured" property the paper's load balancing targets.
func TestIrregularity(t *testing.T) {
	tr := New(1_000_000, 3)
	children := tr.Expand(tr.Root(), nil)
	for len(children) == 1 {
		children = tr.Expand(children[0], nil)
	}
	if len(children) < 2 {
		t.Skip("root chain too deep; irregularity checked in grid tests")
	}
	min, max := children[0].Budget, children[0].Budget
	for _, c := range children[1:] {
		if c.Budget < min {
			min = c.Budget
		}
		if c.Budget > max {
			max = c.Budget
		}
	}
	if max < 2*min {
		t.Logf("top-level split unusually even (min=%d max=%d); tolerated", min, max)
	}
}

func TestDefaultsApplied(t *testing.T) {
	tr := &Tree{W: 100, Seed: 5}
	r := search.DFS[Node](tr)
	if r.Expanded != 100 {
		t.Errorf("expanded %d, want 100 from a Tree literal", r.Expanded)
	}
}

// BenchmarkSyntheticExpand prices the tree itself: every node of a
// 4 096-node tree, leaves included, expanded in DFS order into a buffer
// with room.  ns/node is what the engine and the serial baseline pay per
// simulated node to generate it; an expansion must not allocate, and the
// benchmark fails if one does.
func BenchmarkSyntheticExpand(b *testing.B) {
	const sample = 4096
	tr := New(sample, 1)
	nodes := make([]Node, 0, sample)
	stk := []Node{tr.Root()}
	for len(stk) > 0 {
		n := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		nodes = append(nodes, n)
		stk = tr.Expand(n, stk)
	}
	buf := make([]Node, 0, maxBranch)
	expandAll := func() {
		for _, n := range nodes {
			buf = tr.Expand(n, buf[:0])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expandAll()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/sample, "ns/node")
	if allocs := testing.AllocsPerRun(20, expandAll); allocs != 0 {
		b.Fatalf("%v allocs per %d expansions, want 0", allocs, sample)
	}
}
