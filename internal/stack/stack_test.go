package stack

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"simdtree/internal/scan"
)

// splitOne runs sp on the block of one pair, from -> to, and returns the
// number of nodes it moved.
func splitOne[S any](sp Splitter[S], a *Arena[S], from, to int) int {
	moved := []int{0}
	sp.SplitBlock(a, []scan.Pair{{From: from, To: to}}, moved, nil)
	return moved[0]
}

// onePE returns a one-PE arena holding the given levels, bottom first.
func onePE(levels ...[]int) *Arena[int] {
	a := NewArena[int](1)
	for _, lv := range levels {
		a.PushLevel(0, lv)
	}
	return a
}

func TestPopOrder(t *testing.T) {
	a := onePE([]int{1, 2}, []int{3, 4, 5})
	// Depth-first: the deepest level's alternatives come back first, last
	// alternative first.
	want := []int{5, 4, 3, 2, 1}
	for _, w := range want {
		got, ok := a.Pop(0)
		if !ok || got != w {
			t.Fatalf("Pop = %d,%v, want %d", got, ok, w)
		}
	}
	if _, ok := a.Pop(0); ok {
		t.Error("Pop on empty stack should fail")
	}
}

func TestSizeDepthAndSplittable(t *testing.T) {
	a := onePE([]int{7})
	if a.Size(0) != 1 || a.Depth(0) != 1 || a.Splittable(0) || a.Empty(0) {
		t.Fatalf("unexpected state after one root: size=%d depth=%d", a.Size(0), a.Depth(0))
	}
	a.PushLevel(0, []int{8, 9})
	if a.Size(0) != 3 || a.Depth(0) != 2 || !a.Splittable(0) {
		t.Fatalf("unexpected state: size=%d depth=%d", a.Size(0), a.Depth(0))
	}
	a.PushLevel(0, nil) // ignored
	if a.Depth(0) != 2 {
		t.Error("empty level should be ignored")
	}
}

func TestPopTrimsEmptyLevels(t *testing.T) {
	a := onePE([]int{1}, []int{2}, []int{3})
	a.Pop(0) // removes 3 and its level
	if a.Depth(0) != 2 {
		t.Errorf("depth=%d, want 2 after trimming", a.Depth(0))
	}
}

// TestAppend checks the receiver install of a donation: the donated levels
// land above the current top, and the caller's slices are left intact and
// unaliased (it keeps ownership).
func TestAppend(t *testing.T) {
	a := onePE([]int{1, 2})
	nodes, counts := []int{3, 4, 5}, []int{1, 2}
	a.AppendLevels(0, nodes, counts)
	if want := (model{{1, 2}, {3}, {4, 5}}); !reflect.DeepEqual(flattenPE(a, 0), want) {
		t.Fatalf("levels %v, want %v", flattenPE(a, 0), want)
	}
	if !a.Splittable(0) || !a.SplitBits().Get(0) {
		t.Error("append did not refresh the can-split flag")
	}
	a.Pop(0)
	a.PushLevel(0, []int{9})
	if !slices.Equal(nodes, []int{3, 4, 5}) || !slices.Equal(counts, []int{1, 2}) {
		t.Errorf("arena aliases or changed the donation: %v %v", nodes, counts)
	}
	// Nothing to append is nothing done, on a fresh PE too.
	b := NewArena[int](1)
	b.AppendLevels(0, nil, nil)
	if !b.Empty(0) || b.WorkBits().Get(0) {
		t.Error("empty append left work behind")
	}
}

// TestClone: a cloned arena is a copy, unaffected by what the original
// does next.
func TestClone(t *testing.T) {
	a := onePE([]int{1, 2}, []int{3})
	c := a.Clone()
	a.Pop(0)
	a.PushLevel(0, []int{9})
	if got, want := flattenPE(c, 0), (model{{1, 2}, {3}}); !reflect.DeepEqual(got, want) {
		t.Errorf("clone changed with the arena: %v", got)
	}
	if c.Size(0) != 3 || c.Depth(0) != 2 || !c.SplitBits().Get(0) {
		t.Errorf("clone reports size=%d depth=%d", c.Size(0), c.Depth(0))
	}
}

// TestPushLevelCopyRecycles checks the expansion fast path's contract:
// PushLevel copies (the caller reuses its buffer) and a drained window is
// refilled without allocating.
func TestPushLevelCopyRecycles(t *testing.T) {
	a := NewArena[int](1)
	buf := []int{1, 2, 3}
	a.PushLevel(0, buf)
	buf[0] = 99 // caller reuses its buffer; the stack must be unaffected
	if got := flattenPE(a, 0)[0][0]; got != 1 {
		t.Errorf("arena aliased the caller's buffer: got %d", got)
	}
	for i := 0; i < 3; i++ {
		a.Pop(0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		a.PushLevel(0, buf[:2])
		a.Pop(0)
		a.Pop(0)
	})
	if allocs > 0 {
		t.Errorf("PushLevel allocates %.1f times per cycle after warm-up", allocs)
	}
}

// TestRecycledLevelsDropStaleValues ensures a reused window never leaks
// old node values back into the stack.
func TestRecycledLevelsDropStaleValues(t *testing.T) {
	a := onePE([]int{10, 11, 12})
	for i := 0; i < 3; i++ {
		a.Pop(0)
	}
	a.PushLevel(0, []int{20})
	if got, want := flattenPE(a, 0), (model{{20}}); !reflect.DeepEqual(got, want) {
		t.Errorf("stale values leaked: %v", got)
	}
}

// buildRandom constructs a random multi-level stack whose node values are
// all distinct, for split-invariant checks.
func buildRandom(rng *rand.Rand) (m model) {
	next := 0
	levels := 1 + rng.Intn(6)
	for l := 0; l < levels; l++ {
		width := 1 + rng.Intn(4)
		lv := make([]int, width)
		for i := range lv {
			lv[i] = next
			next++
		}
		m.push(lv)
	}
	return m
}

// TestSplitInvariants property-checks every splitter: after a split of a
// splittable stack, (1) no node is lost or duplicated, (2) both parts are
// non-empty — the alpha-splitting contract of Section 3.
func TestSplitInvariants(t *testing.T) {
	splitters := []Splitter[int]{BottomNode[int]{}, HalfStack[int]{}, TopNode[int]{}}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1000; trial++ {
		for _, sp := range splitters {
			s := buildRandom(rng)
			if s.size() < 2 {
				continue
			}
			before, _ := s.flat()
			a := NewArena[int](2)
			s.install(a, 0)
			moved := splitOne(sp, a, 0, 1)
			if moved == 0 || a.Resident(1) != moved {
				t.Fatalf("%s: reported %d moved, receiver holds %d (stack had %d nodes)", sp.Name(), moved, a.Resident(1), len(before))
			}
			if a.Resident(0) == 0 {
				t.Fatalf("%s: donor left empty", sp.Name())
			}
			after, _ := append(flattenPE(a, 0), flattenPE(a, 1)...).flat()
			sort.Ints(before)
			sort.Ints(after)
			if !slices.Equal(before, after) {
				t.Fatalf("%s: node multiset changed: %v -> %v", sp.Name(), before, after)
			}
		}
	}
}

// splitOff runs sp on a one-donor arena built from levels and returns the
// donated and the kept levels.
func splitOff(sp Splitter[int], levels ...[]int) (donated, kept model) {
	a := NewArena[int](2)
	for _, lv := range levels {
		a.PushLevel(0, lv)
	}
	splitOne(sp, a, 0, 1)
	return flattenPE(a, 1), flattenPE(a, 0)
}

func TestBottomNodeTakesShallowest(t *testing.T) {
	d, k := splitOff(BottomNode[int]{}, []int{10, 11}, []int{20})
	if !reflect.DeepEqual(d, model{{10}}) || !reflect.DeepEqual(k, model{{11}, {20}}) {
		t.Errorf("bottom-node split donated %v kept %v, want [[10]] and [[11] [20]]", d, k)
	}
}

func TestTopNodeTakesDeepest(t *testing.T) {
	d, k := splitOff(TopNode[int]{}, []int{10, 11}, []int{20, 21})
	if !reflect.DeepEqual(d, model{{21}}) || !reflect.DeepEqual(k, model{{10, 11}, {20}}) {
		t.Errorf("top-node split donated %v kept %v, want [[21]] and [[10 11] [20]]", d, k)
	}
}

func TestHalfStackHalvesEachLevel(t *testing.T) {
	// 2 from the first level, 1 from the second, level structure kept.
	d, k := splitOff(HalfStack[int]{}, []int{1, 2, 3, 4}, []int{5, 6})
	if !reflect.DeepEqual(d, model{{1, 2}, {5}}) || !reflect.DeepEqual(k, model{{3, 4}, {6}}) {
		t.Errorf("half-stack donated %v kept %v, want [[1 2] [5]] and [[3 4] [6]]", d, k)
	}
}

func TestHalfStackSingletonLevels(t *testing.T) {
	// Every level has one alternative; the fallback must still produce a
	// non-empty donation: the bottom node.
	d, k := splitOff(HalfStack[int]{}, []int{1}, []int{2}, []int{3})
	if !reflect.DeepEqual(d, model{{1}}) || !reflect.DeepEqual(k, model{{2}, {3}}) {
		t.Errorf("half-stack fallback donated %v kept %v, want [[1]] and [[2] [3]]", d, k)
	}
}

// TestPopAllMatchesFlatten property-checks that repeatedly popping yields
// exactly the multiset that was pushed.
func TestPopAllMatchesFlatten(t *testing.T) {
	f := func(levels [][]byte) bool {
		a := NewArena[int](1)
		var all []int
		for _, lv := range levels {
			ints := make([]int, len(lv))
			for i := range lv {
				ints[i] = len(all) + i
			}
			all = append(all, ints...)
			a.PushLevel(0, ints)
		}
		if got, _ := flattenPE(a, 0).flat(); a.Size(0) != len(all) || !slices.Equal(got, all) {
			return false
		}
		var popped []int
		for {
			v, ok := a.Pop(0)
			if !ok {
				break
			}
			popped = append(popped, v)
		}
		sort.Ints(popped)
		return slices.Equal(popped, all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
