package stack

import (
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

var runMutants = flag.Bool("mutants", false, "run TestArenaMutatorRuns' planted-mutant subtests")

// ptrNode is a node type the garbage collector traces, so the stores that
// zero vacated slots are not dead code for it.
type ptrNode struct{ p *int }

// mutators are the two operations the planted mutants replace; the zero
// value is the arena's own.
type mutators[S any] struct {
	push         func(a *Arena[S], pe int, alts []S)
	removeBottom func(a *Arena[S], pe int) (S, bool)
}

// mutatorRuns drives PEs 0 and 1 of an arena and two naive models through
// random runs of one to eight mutators and compares them only at the end of
// each run: nothing reads the level structure between two mutations of a
// run, so a count the mutators left stale stays stale until it is checked.
// (checkOwnership runs after every mutation; it reads buffers, not levels.)
// The three PEs share one home chunk, PE 2 never leaving its window idle.
// It returns the first divergence.
func mutatorRuns[S comparable](seed int64, mk func(int) S, val func(S) int, mut mutators[S]) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if mut.push == nil {
		mut.push = (*Arena[S]).PushLevel
	}
	if mut.removeBottom == nil {
		mut.removeBottom = removeBottom[S]
	}
	splitters := []Splitter[S]{BottomNode[S]{}, HalfStack[S]{}, TopNode[S]{}}
	rng := rand.New(rand.NewSource(seed))
	next := 0
	level := func(width int) (lv []S, vals []int) {
		for i := 0; i < width; i++ {
			lv, vals = append(lv, mk(next)), append(vals, next)
			next++
		}
		return lv, vals
	}
	levels := func(a *Arena[S], pe int) (m model) {
		a.ForEachLevel(pe, func(lv []S) {
			vals := make([]int, len(lv))
			for i, s := range lv {
				vals[i] = val(s)
			}
			m.push(vals)
		})
		return m
	}

	for trial := 0; trial < 300; trial++ {
		a := NewArena[S](3)
		sc := new(ExpandScratch[S])
		var ms [2]model
		for run := 0; run < 40; run++ {
			for n := 1 + rng.Intn(8); n > 0; n-- {
				x := rng.Intn(2)
				y, m := 1-x, &ms[x]
				switch op := rng.Intn(12); op {
				case 0: // push a level
					lv, vals := level(1 + rng.Intn(5))
					mut.push(a, x, lv)
					m.push(vals)
				case 1: // push one
					lv, vals := level(1)
					a.pushOneRaw(x, lv[0])
					a.SyncBits(x)
					m.push(vals)
				case 2:
					a.Pop(x)
					m.pop()
				case 3:
					mut.removeBottom(a, x)
					m.removeBottom()
				case 4, 5, 6: // the three splitters, x to y
					if sp := splitters[op-4]; m.size() >= 2 {
						splitOne(sp, a, x, y)
						a.SyncBits(x)
						a.SyncBits(y)
						ms[y] = append(ms[y], m.split(sp.Name())...)
					}
				case 7: // evict the bottom k levels, maybe push above the rest, restore
					if d := a.ResidentDepth(x); d > 0 {
						k := 1 + rng.Intn(d)
						seg := captureBottom(a, x, k)
						a.DropBottom(x, k)
						if rng.Intn(2) == 0 {
							lv, vals := level(1 + rng.Intn(3))
							mut.push(a, x, lv)
							m.push(vals)
						}
						a.PrependLevels(x, seg.nodes, seg.counts)
					}
				case 8:
					a.Clear(x)
					*m = nil
				case 9: // install a fresh stack
					var nodes []S
					var counts []int
					*m = nil
					for l := rng.Intn(5); l > 0; l-- {
						lv, vals := level(1 + rng.Intn(4))
						nodes, counts = append(nodes, lv...), append(counts, len(lv))
						m.push(vals)
					}
					a.Clear(x)
					a.AppendLevels(x, nodes, counts)
				case 10: // an expansion cycle: every busy PE pops and pushes 0-4 successors
					var plan [][]S
					for pe := range ms {
						if _, ok := ms[pe].pop(); ok {
							lv, vals := level(rng.Intn(5))
							plan = append(plan, lv)
							ms[pe].push(vals)
						}
					}
					oneCycle(a, planned[S]{&plan}, 0, a.P(), sc)
				case 11: // a snapshot restore of one PE: x becomes a copy of y
					a.CopyPE(x, a, y)
					*m = nil
					for _, lv := range ms[y] {
						m.push(lv)
					}
				}
				if err := checkOwnership(a, val, ms[:]); err != nil {
					return err
				}
			}

			for pe, m := range ms {
				if a.Size(pe) != m.size() || a.Depth(pe) != len(m) || a.Ghost(pe) != 0 {
					return fmt.Errorf("size/depth: PE %d size=%d depth=%d ghost=%d, model size=%d depth=%d",
						pe, a.Size(pe), a.Depth(pe), a.Ghost(pe), m.size(), len(m))
				}
				got := levels(a, pe)
				if got.size() != a.Size(pe) {
					return fmt.Errorf("level sum: PE %d levels hold %d nodes, size is %d", pe, got.size(), a.Size(pe))
				}
				if !reflect.DeepEqual(got, m) {
					return fmt.Errorf("levels: PE %d\narena %v\nmodel %v", pe, got, m)
				}
				if a.WorkBits().Get(pe) != (m.size() > 0) || a.SplitBits().Get(pe) != (m.size() >= 2) {
					return fmt.Errorf("bits: PE %d work=%v split=%v at size %d", pe, a.WorkBits().Get(pe), a.SplitBits().Get(pe), m.size())
				}
				// Every slot outside the live window was zeroed for the collector.
				var zero S
				p := &a.pes[pe]
				for i, s := range p.buf {
					if (i < int(p.head) || i >= int(p.head+p.size)) && s != zero {
						return fmt.Errorf("zeroing: PE %d slot %d outside window [%d,%d) still holds a node", pe, i, p.head, p.head+p.size)
					}
				}
				// Readers are pure: a second walk sees the same levels, and the
				// next pop is the model's.
				if again := levels(a, pe); !reflect.DeepEqual(again, got) || a.Size(pe) != m.size() || a.Depth(pe) != len(m) {
					return fmt.Errorf("reader purity: PE %d second walk %v size=%d depth=%d, first %v", pe, again, a.Size(pe), a.Depth(pe), got)
				}
				av, aok := a.Pop(pe)
				mv, mok := ms[pe].pop()
				if aok != mok || (aok && val(av) != mv) {
					return fmt.Errorf("pop after walk: PE %d arena %v,%v model %d,%v", pe, av, aok, mv, mok)
				}
			}
		}
	}
	return nil
}

// planned is the expansion-cycle op's domain: the i-th node expanded gets the
// i-th planned level as its successors, appended one at a time so a level
// can start in the PE's buffer and end in the one append moved it to.
type planned[S any] struct{ levels *[][]S }

func (planned[S]) Goal(S) bool { return false }

func (p planned[S]) Expand(_ S, buf []S) []S {
	lv := (*p.levels)[0]
	*p.levels = (*p.levels)[1:]
	for _, s := range lv {
		buf = append(buf, s)
	}
	return buf
}

// checkOwnership is the home-window invariant, read off the records without
// going through the level structure: no two PEs' node buffers or level
// tables share a slot, PE pe's live nodes are ms[pe]'s, and every slot of a
// chunk is zero unless it is a live node of the PE whose window it is in.
func checkOwnership[S comparable](a *Arena[S], val func(S) int, ms []model) error {
	var zero S
	span := func(ptr unsafe.Pointer, n int, size uintptr) [2]uintptr {
		return [2]uintptr{uintptr(ptr), uintptr(ptr) + uintptr(n)*size}
	}
	var bufs, lvls [][2]uintptr
	for pe := range a.pes {
		p := &a.pes[pe]
		bufs = append(bufs, span(unsafe.Pointer(unsafe.SliceData(p.buf)), cap(p.buf), unsafe.Sizeof(zero)))
		lvls = append(lvls, span(unsafe.Pointer(unsafe.SliceData(p.lvl)), cap(p.lvl), 4))
		for _, spans := range [][][2]uintptr{bufs, lvls} {
			for q, s := range spans[:pe] {
				if t := spans[pe]; s[0] < t[1] && t[0] < s[1] {
					return fmt.Errorf("ownership: PEs %d and %d share storage, [%#x,%#x) and [%#x,%#x)", q, pe, s[0], s[1], t[0], t[1])
				}
			}
		}
		if pe < len(ms) {
			nodes, _ := ms[pe].flat()
			live := p.buf[p.head : p.head+p.size]
			if len(live) != len(nodes) {
				return fmt.Errorf("ownership: PE %d holds %d live nodes, the model %d", pe, len(live), len(nodes))
			}
			for i, s := range live {
				if val(s) != nodes[i] {
					return fmt.Errorf("ownership: PE %d node %d is %d, the model's %d", pe, i, val(s), nodes[i])
				}
			}
		}
	}
	for pe := range a.pes {
		if h := a.homes[pe>>6].Load(); h != nil {
			i, p := pe&63, &a.pes[pe]
			win := h.nodes[i*homeNodes : (i+1)*homeNodes]
			home := cap(p.buf) > 0 && unsafe.SliceData(p.buf) == &win[0]
			for j, s := range win {
				if s != zero && !(home && j >= int(p.head) && j < int(p.head+p.size)) {
					return fmt.Errorf("ownership: slot %d of PE %d's window holds a node (PE at home: %v, window [%d,%d))", j, pe, home, p.head, p.head+p.size)
				}
			}
		}
	}
	return nil
}

// pushForgetsTop is planted mutant 1: a push that does not park the old
// top level's length in the table, so the slot keeps what it last held.
func pushForgetsTop[S any](a *Arena[S], pe int, alts []S) {
	p := &a.pes[pe]
	var stale int32
	if slot := int(p.lvlLo + p.depth - 1); p.depth > 0 && slot < len(p.lvl) {
		stale = p.lvl[slot]
	}
	a.PushLevel(pe, alts)
	if p.depth >= 2 && len(alts) > 0 {
		p.lvl[p.lvlLo+p.depth-2] = stale
	}
}

// removeBottom is the arena's own bottom removal: the raw mutator, then
// the PE's flag bits.
func removeBottom[S any](a *Arena[S], pe int) (S, bool) {
	node, ok := a.removeBottomRaw(pe)
	a.SyncBits(pe)
	return node, ok
}

// removeBottomShrinksTable is planted mutant 2: bottom removal that books
// the removed node against the level table even when the stack is one level
// deep and the bottom level is the record's top.
func removeBottomShrinksTable[S any](a *Arena[S], pe int) (S, bool) {
	p := &a.pes[pe]
	if p.depth != 1 || len(p.lvl) == 0 {
		return removeBottom(a, pe)
	}
	var zero S
	node := p.buf[p.head]
	p.buf[p.head] = zero
	p.head++
	p.size--
	p.lvl[p.lvlLo]--
	a.SyncBits(pe)
	return node, true
}

// TestArenaMutatorRuns is the model test that does not heal the level
// table between mutations (TestArenaMatchesStack walks the levels after
// every operation), over a plain 64-bit node and one holding a pointer.
// The mutant subtests plant a bug and pass when mutatorRuns reports it.
func TestArenaMutatorRuns(t *testing.T) {
	ident := func(i int) int { return i }
	box := func(i int) ptrNode { return ptrNode{&i} }
	unbox := func(s ptrNode) int { return *s.p }
	t.Run("int", func(t *testing.T) {
		if err := mutatorRuns(29, ident, ident, mutators[int]{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("pointer", func(t *testing.T) {
		if err := mutatorRuns(31, box, unbox, mutators[ptrNode]{}); err != nil {
			t.Fatal(err)
		}
	})
	for _, m := range []struct {
		name string
		mut  mutators[int]
	}{
		{"mutant/push-forgets-top", mutators[int]{push: pushForgetsTop[int]}},
		{"mutant/remove-bottom-shrinks-table", mutators[int]{removeBottom: removeBottomShrinksTable[int]}},
	} {
		t.Run(m.name, func(t *testing.T) {
			if !*runMutants {
				t.Skip("planted mutant; run with -mutants")
			}
			err := mutatorRuns(29, ident, ident, m.mut)
			if err == nil {
				t.Fatal("the mutant survived every run")
			}
			t.Logf("caught by %v", err)
		})
	}
}

var layoutSink *Arena[int]

// TestArenaLayout pins the two facts the footprint of a large machine rests
// on: a PE's record is two slice headers and seven 32-bit fields whatever
// the node type, and building an arena is a fixed handful of allocations
// whatever P.
func TestArenaLayout(t *testing.T) {
	type wide struct{ a, b, c [4]uint64 }
	for name, size := range map[string]uintptr{
		"int":  unsafe.Sizeof(pe[int]{}),
		"wide": unsafe.Sizeof(pe[wide]{}),
	} {
		if size > 80 {
			t.Errorf("PE record of %s nodes is %d bytes, want at most 80", name, size)
		}
	}
	for _, p := range []int{1, 8192, 65536} {
		if allocs := testing.AllocsPerRun(5, func() { layoutSink = NewArena[int](p) }); allocs > 4 {
			t.Errorf("NewArena(%d) makes %.0f allocations, want at most 4", p, allocs)
		}
	}
}
