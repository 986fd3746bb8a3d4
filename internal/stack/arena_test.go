package stack

import (
	"math/rand"
	"reflect"
	"testing"

	"simdtree/internal/scan"
)

// flattenPE returns PE pe's nodes bottom-to-top, one slice per level.
func flattenPE(a *Arena[int], pe int) (m model) {
	a.ForEachLevel(pe, m.push)
	return m
}

// model is the naive reference for one PE's stack: one slice per level,
// bottom first, never an empty level, nil when empty.  It is deliberately
// the obvious implementation — every removal rebuilds the whole value — so
// the arena's windowed storage is checked against something that shares
// none of its code.
type model [][]int

func (m *model) push(lv []int) {
	if len(lv) > 0 {
		*m = append(*m, append([]int(nil), lv...))
	}
}

func (m model) size() (n int) {
	for _, lv := range m {
		n += len(lv)
	}
	return n
}

// take removes and returns element i of level l.
func (m *model) take(l, i int) int {
	v := (*m)[l][i]
	var out model
	for j, lv := range *m {
		if j == l {
			lv = append(append([]int(nil), lv[:i]...), lv[i+1:]...)
		}
		out.push(lv)
	}
	*m = out
	return v
}

func (m *model) pop() (int, bool) {
	if len(*m) == 0 {
		return 0, false
	}
	top := len(*m) - 1
	return m.take(top, len((*m)[top])-1), true
}

func (m *model) removeBottom() (int, bool) {
	if len(*m) == 0 {
		return 0, false
	}
	return m.take(0, 0), true
}

// split applies the named splitting strategy and returns the donated
// levels.
func (m *model) split(name string) model {
	if name == "half-stack" {
		var give, keep model
		for _, lv := range *m {
			give.push(lv[:len(lv)/2])
			keep.push(lv[len(lv)/2:])
		}
		if give != nil {
			*m = keep
			return give
		}
	}
	take := m.removeBottom // bottom-node, and half-stack's all-singletons fallback
	if name == "top-node" {
		take = m.pop
	}
	v, _ := take()
	return model{{v}}
}

// flat returns the model in the form AppendLevels and PrependLevels take:
// the nodes bottom level first, and each level's length.
func (m model) flat() (nodes, counts []int) {
	for _, lv := range m {
		nodes, counts = append(nodes, lv...), append(counts, len(lv))
	}
	return nodes, counts
}

// install replaces PE pe's contents with a copy of m.
func (m model) install(a *Arena[int], pe int) {
	nodes, counts := m.flat()
	a.Clear(pe)
	a.AppendLevels(pe, nodes, counts)
}

// checkBits verifies invariant 2: the has-work and can-split bits mirror
// the per-PE sizes at every quiescent point.
func checkBits(t *testing.T, a *Arena[int]) {
	t.Helper()
	for pe := 0; pe < a.P(); pe++ {
		if got, want := a.WorkBits().Get(pe), a.Size(pe) > 0; got != want {
			t.Fatalf("PE %d: work bit = %v, size = %d", pe, got, a.Size(pe))
		}
		if got, want := a.SplitBits().Get(pe), a.Size(pe) >= 2; got != want {
			t.Fatalf("PE %d: split bit = %v, size = %d", pe, got, a.Size(pe))
		}
	}
}

// checkLevelInvariant verifies invariant 1: every live level holds at
// least one node, and the level lengths sum to the size.
func checkLevelInvariant(t *testing.T, a *Arena[int], pe int) {
	t.Helper()
	total := 0
	a.ForEachLevel(pe, func(lv []int) {
		if len(lv) == 0 {
			t.Fatalf("PE %d: empty live level", pe)
		}
		total += len(lv)
	})
	if total != a.Size(pe) {
		t.Fatalf("PE %d: levels sum to %d, size is %d", pe, total, a.Size(pe))
	}
}

// TestArenaMatchesStack drives an arena PE and the naive stack model
// through the same random operation sequence and checks they stay
// observationally identical: same size, depth, pop results, bottom
// removals, and the same level structure.
func TestArenaMatchesStack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a := NewArena[int](4)
		var m model
		next := 0
		for op := 0; op < 120; op++ {
			switch rng.Intn(4) {
			case 0: // push a level
				width := 1 + rng.Intn(5)
				lv := make([]int, width)
				for i := range lv {
					lv[i] = next
					next++
				}
				a.PushLevel(1, lv)
				m.push(lv)
			case 1: // pop
				av, aok := a.Pop(1)
				mv, mok := m.pop()
				if av != mv || aok != mok {
					t.Fatalf("Pop: arena %d,%v model %d,%v", av, aok, mv, mok)
				}
			case 2: // remove bottom
				av, aok := a.RemoveBottom(1)
				mv, mok := m.removeBottom()
				if av != mv || aok != mok {
					t.Fatalf("RemoveBottom: arena %d,%v model %d,%v", av, aok, mv, mok)
				}
			case 3: // push one
				a.PushOne(1, next)
				m.push([]int{next})
				next++
			}
			if a.Size(1) != m.size() || a.Depth(1) != len(m) {
				t.Fatalf("arena size=%d depth=%d, model size=%d depth=%d", a.Size(1), a.Depth(1), m.size(), len(m))
			}
			if a.Empty(1) != (m.size() == 0) || a.Splittable(1) != (m.size() >= 2) {
				t.Fatalf("flags diverge at size %d", m.size())
			}
			checkLevelInvariant(t, a, 1)
			checkBits(t, a)
			if got := flattenPE(a, 1); !reflect.DeepEqual(got, m) {
				t.Fatalf("levels diverge:\narena %v\nmodel %v", got, m)
			}
		}
	}
}

// TestArenaSplittersMatchSplitInto checks every splitter against the naive
// model's statement of its strategy: same donated levels in the same
// order above the receiver's top, same donor remainder.
func TestArenaSplittersMatchSplitInto(t *testing.T) {
	splitters := []Splitter[int]{BottomNode[int]{}, HalfStack[int]{}, TopNode[int]{}}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 500; trial++ {
		for _, sp := range splitters {
			want := buildRandom(rng)
			if want.size() < 2 {
				continue
			}
			a := NewArena[int](2)
			want.install(a, 0)
			// Give the receiver pre-existing work half the time, so the
			// append-above-top path is exercised too.
			var wantRecv model
			if rng.Intn(2) == 0 {
				a.PushLevel(1, []int{9000, 9001})
				wantRecv.push([]int{9000, 9001})
			}
			moved := splitOne(sp, a, 0, 1)
			a.SyncBits(0)
			a.SyncBits(1)

			donated := want.split(sp.Name())
			if moved != donated.size() {
				t.Fatalf("%s: arena moved %d, model moved %d", sp.Name(), moved, donated.size())
			}
			if got := flattenPE(a, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: donor remainder diverges:\narena %v\nmodel %v", sp.Name(), got, want)
			}
			wantRecv = append(wantRecv, donated...)
			if got := flattenPE(a, 1); !reflect.DeepEqual(got, wantRecv) {
				t.Fatalf("%s: receiver diverges:\narena %v\nmodel %v", sp.Name(), got, wantRecv)
			}
			checkLevelInvariant(t, a, 0)
			checkLevelInvariant(t, a, 1)
			checkBits(t, a)
		}
	}
}

// TestArenaInstallMaterializeRoundTrip checks AppendLevels → Clone is the
// identity on canonical level structure, and that neither direction
// aliases storage across the arena boundary.
func TestArenaInstallMaterializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		want := buildRandom(rng)
		nodes, counts := want.flat()
		a := NewArena[int](1)
		a.AppendLevels(0, nodes, counts)
		// The install copies: scribbling on the source's storage afterwards
		// must not be visible in the arena.
		for i := range nodes {
			nodes[i] = -1
		}
		if got := flattenPE(a, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("arena aliases the installed levels:\n%v\n%v", got, want)
		}
		c := a.Clone()
		if got := flattenPE(c, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip diverges:\n%v\n%v", got, want)
		}
		if p := &c.pes[0]; len(p.buf) != want.size() || len(p.lvl) != len(want)-1 {
			t.Fatalf("clone of %d nodes in %d levels holds a %d-node buffer and a %d-entry table", want.size(), len(want), len(p.buf), len(p.lvl))
		}
		// The clone copies too: draining the arena must not disturb it.
		for !a.Empty(0) {
			a.Pop(0)
		}
		a.PushLevel(0, []int{-2, -3})
		if got := flattenPE(c, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("clone aliases the arena:\n%v\n%v", got, want)
		}
		checkBits(t, c)
	}
}

// TestArenaNilInstallClears checks the contract RestoreSnapshot relies on
// to park a PE: copying an empty PE over a busy one leaves it empty, ghost
// accounting and flag bits included.
func TestArenaNilInstallClears(t *testing.T) {
	a := NewArena[int](2)
	for i := 0; i < 4; i++ {
		a.PushLevel(0, []int{i, i + 100})
	}
	a.DropBottom(0, 2)
	a.CopyPE(0, a, 1)
	if !a.Empty(0) || a.Depth(0) != 0 || a.Ghost(0) != 0 || a.WorkBits().Get(0) || a.SplitBits().Get(0) {
		t.Fatalf("copying an empty PE left size=%d depth=%d ghost=%d", a.Size(0), a.Depth(0), a.Ghost(0))
	}
}

// TestArenaSteadyStateZeroAlloc checks the expansion cycle contract: once
// a PE's buffer and level table have grown to the working-set size,
// push/pop churn, a transfer by each splitter and the install of a decoded
// payload into a drained PE allocate nothing.  (An install into a PE that
// never held work sizes its buffers by design, outside the steady state.)
func TestArenaSteadyStateZeroAlloc(t *testing.T) {
	lv := []int{1, 2, 3, 4}
	// A decoded donation or checkpoint PE: three levels, bottom first.
	payload, counts := []int{5, 6, 7, 8, 9, 10}, []int{1, 2, 3}
	for _, sp := range []Splitter[int]{HalfStack[int]{}, BottomNode[int]{}, TopNode[int]{}} {
		t.Run(sp.Name(), func(t *testing.T) {
			a := NewArena[int](2)
			// Warm up both PEs past the working-set high-water mark.
			for i := 0; i < 64; i++ {
				a.PushLevel(0, lv)
				a.PushLevel(1, lv)
			}
			pair, moved := []scan.Pair{{From: 0, To: 1}}, []int{0}
			var nodes []int
			allocs := testing.AllocsPerRun(200, func() {
				// Drain both PEs and re-install the payload into PE 0.
				for pe := 0; pe < 2; pe++ {
					for !a.Empty(pe) {
						a.Pop(pe)
					}
				}
				a.AppendLevels(0, payload, counts)
				// One expansion step: pop a node, push its successors.
				a.Pop(0)
				a.PushLevel(0, lv)
				// One transfer from PE 0 onto PE 1.
				nodes = sp.SplitBlock(a, pair, moved, nodes)
				a.SyncBits(0)
				a.SyncBits(1)
			})
			if moved[0] == 0 {
				t.Fatal("the transfer moved nothing")
			}
			if allocs > 0 {
				t.Errorf("steady-state cycle allocates %.1f times", allocs)
			}
		})
	}
}

// evicted is one captured eviction in the form the spill manager decodes
// a segment to: the nodes bottom level first, and each level's length.
type evicted[S any] struct {
	nodes  []S
	counts []int
}

// captureBottom copies the bottom k resident levels of PE pe, the way the
// spill manager serialises an eviction.
func captureBottom[S any](a *Arena[S], pe, k int) evicted[S] {
	var seg evicted[S]
	a.ForEachBottomLevel(pe, k, func(lv []S) {
		seg.nodes = append(seg.nodes, lv...)
		seg.counts = append(seg.counts, len(lv))
	})
	return seg
}

// TestArenaDropRestoreRoundTrip drives a PE through random interleavings
// of pushes, pops, evictions (DropBottom) and restores (PrependLevels) and
// checks that (a) the schedule-visible quantities — total size, depth,
// flags, bits — never see the residency changes, and (b) after restoring
// everything the level structure equals the naive model that ran the same
// pushes and pops.
func TestArenaDropRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		a := NewArena[int](2)
		var ref model
		var segs []evicted[int] // LIFO of evicted segments
		next := 0
		for op := 0; op < 150; op++ {
			switch rng.Intn(5) {
			case 0, 1: // push a level
				width := 1 + rng.Intn(4)
				lv := make([]int, width)
				for i := range lv {
					lv[i] = next
					next++
				}
				a.PushLevel(1, lv)
				ref.push(lv)
			case 2: // pop (only when the top is resident, as the engine guarantees)
				if a.Resident(1) == 0 && a.Ghost(1) > 0 {
					a.PrependLevels(1, segs[len(segs)-1].nodes, segs[len(segs)-1].counts)
					segs = segs[:len(segs)-1]
				}
				av, aok := a.Pop(1)
				sv, sok := ref.pop()
				if av != sv || aok != sok {
					t.Fatalf("Pop: arena %d,%v ref %d,%v", av, aok, sv, sok)
				}
			case 3: // evict all but the top 2 resident levels
				if k := a.ResidentDepth(1) - 2; k > 0 {
					seg := captureBottom(a, 1, k)
					if n := a.DropBottom(1, k); n != len(seg.nodes) {
						t.Fatalf("DropBottom moved %d nodes, captured %d", n, len(seg.nodes))
					}
					segs = append(segs, seg)
				}
			case 4: // restore the newest segment
				if len(segs) > 0 {
					a.PrependLevels(1, segs[len(segs)-1].nodes, segs[len(segs)-1].counts)
					segs = segs[:len(segs)-1]
				}
			}
			if a.Size(1) != ref.size() || a.Depth(1) != len(ref) {
				t.Fatalf("totals diverge: arena size=%d depth=%d, ref size=%d depth=%d",
					a.Size(1), a.Depth(1), ref.size(), len(ref))
			}
			if a.Empty(1) != (ref.size() == 0) || a.Splittable(1) != (ref.size() >= 2) {
				t.Fatalf("flags diverge at size %d", ref.size())
			}
			checkBits(t, a)
			if a.Resident(1)+a.Ghost(1) != a.Size(1) {
				t.Fatalf("resident %d + ghost %d != total %d", a.Resident(1), a.Ghost(1), a.Size(1))
			}
		}
		// Restore everything and compare the full level structure.
		for len(segs) > 0 {
			a.PrependLevels(1, segs[len(segs)-1].nodes, segs[len(segs)-1].counts)
			segs = segs[:len(segs)-1]
		}
		if a.Ghost(1) != 0 || a.GhostLevels(1) != 0 {
			t.Fatalf("ghost accounting left over: %d nodes, %d levels", a.Ghost(1), a.GhostLevels(1))
		}
		if got := flattenPE(a, 1); !reflect.DeepEqual(got, ref) {
			t.Fatalf("levels diverge after full restore:\narena %v\nref %v", got, ref)
		}
		checkLevelInvariant(t, a, 1)
	}
}

// TestArenaClearDropsGhost checks the clear/reinstall contract: a cleared
// PE owes nothing to stable storage.
func TestArenaClearDropsGhost(t *testing.T) {
	a := NewArena[int](1)
	for i := 0; i < 6; i++ {
		a.PushLevel(0, []int{i, i + 100})
	}
	a.DropBottom(0, 3)
	if a.Ghost(0) == 0 {
		t.Fatal("eviction recorded no ghost nodes")
	}
	model{{1, 2, 3}}.install(a, 0)
	if a.Ghost(0) != 0 || a.GhostLevels(0) != 0 {
		t.Fatalf("reinstall kept ghost accounting: %d nodes, %d levels", a.Ghost(0), a.GhostLevels(0))
	}
	if a.Size(0) != 3 {
		t.Fatalf("reinstalled size = %d, want 3", a.Size(0))
	}
}

// TestArenaBottomRemovalReclaimsSpace checks that the head offset left by
// bottom-node donations is reclaimed by the window slide rather than by
// growing the buffer: a donor that cycles forever must reach a fixed
// buffer size.
func TestArenaBottomRemovalReclaimsSpace(t *testing.T) {
	a := NewArena[int](1)
	lv := []int{1, 2}
	a.PushLevel(0, lv)
	a.PushLevel(0, lv)
	for i := 0; i < 10; i++ {
		a.RemoveBottom(0)
		a.PushOne(0, i)
	}
	grown := len(a.pes[0].buf)
	for i := 0; i < 10000; i++ {
		a.RemoveBottom(0)
		a.PushOne(0, i)
	}
	if len(a.pes[0].buf) != grown {
		t.Errorf("buffer grew from %d to %d under steady bottom-removal churn", grown, len(a.pes[0].buf))
	}
}
