package wire

import (
	"bytes"
	"testing"

	"simdtree/internal/puzzle"
	"simdtree/internal/queens"
	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
)

// Partial-stack round trips: the shapes a distributed donation actually
// ships are not the tidy stacks of TestStackRoundTrip but the leftovers
// of splitting — donors whose bottom level drained, single-level
// donated fragments, and the empty stacks of idle PEs.  These tests pin
// each shape through the codecs.

// splitBottom builds a donor PE from levels, splits its bottom node onto
// an idle PE the way a transfer does, and returns what each side then
// ships: the donor's remainder and the donated fragment.
func splitBottom[S any](levels ...[]S) (donor, donated *stack.Stack[S], a *stack.Arena[S]) {
	a = stack.NewArena[S](2)
	for _, lv := range levels {
		a.PushLevel(0, lv)
	}
	stack.BottomNode[S]{}.SplitArena(a, 0, 1)
	a.SyncBits(0)
	a.SyncBits(1)
	return a.MaterializeStack(0), a.MaterializeStack(1), a
}

// TestPartialStackInteriorEmptyLevel splits the sole bottom node off a
// stack, draining the donor's bottom level.  The arena drops the emptied
// level the moment it forms, so no hole survives below the two live
// levels: the remainder encodes canonically, identically through the
// Stack and the arena encoders, decodes to the same search order, and
// re-encoding is byte-stable.
func TestPartialStackInteriorEmptyLevel(t *testing.T) {
	c := PuzzleCodec{}
	s, donated, a := splitBottom(
		[]puzzle.Node{puzzle.Scramble(1, 10)},
		[]puzzle.Node{puzzle.Scramble(2, 12), puzzle.Scramble(3, 14)},
		[]puzzle.Node{puzzle.Scramble(4, 16), puzzle.Scramble(5, 18)},
	)
	if donated.Size() != 1 {
		t.Fatalf("bottom-node split donated %d nodes, want 1", donated.Size())
	}
	if s.Depth() != 2 || s.Size() != 4 {
		t.Fatalf("donor depth/size = %d/%d, want 2/4 (drained level dropped)", s.Depth(), s.Size())
	}

	msg := EncodeStack[puzzle.Node](c, s)
	if direct := EncodeArena[puzzle.Node](c, a, 0); !bytes.Equal(msg, direct) {
		t.Error("arena and stack encoders disagree on the donor remainder")
	}
	got, err := DecodeStack[puzzle.Node](c, msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Depth() != 2 || got.Size() != s.Size() {
		t.Fatalf("decoded depth/size = %d/%d, want 2/%d", got.Depth(), got.Size(), s.Size())
	}
	x, y := s.Flatten(), got.Flatten()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("node %d changed across the round trip", i)
		}
	}
	if again := EncodeStack[puzzle.Node](c, got); !bytes.Equal(msg, again) {
		t.Error("re-encoding the decoded stack changed bytes")
	}
}

// TestPartialStackSingleLevelDonation round-trips the smallest real
// donation — one level, as bottom-node splitting produces — through every
// workload codec.
func TestPartialStackSingleLevelDonation(t *testing.T) {
	t.Run("puzzle", func(t *testing.T) {
		_, d, _ := splitBottom([]puzzle.Node{puzzle.Scramble(7, 20), puzzle.Scramble(8, 22)})
		roundTripPartial(t, PuzzleCodec{}, d)
	})
	t.Run("synthetic", func(t *testing.T) {
		_, d, _ := splitBottom([]synthetic.Node{{Budget: 900, Seed: 11}, {Budget: 41, Seed: 12}})
		roundTripPartial(t, SyntheticCodec{}, d)
	})
	t.Run("queens", func(t *testing.T) {
		dom := queens.New(8)
		_, d, _ := splitBottom(dom.Expand(dom.Root(), nil))
		roundTripPartial(t, QueensCodec{}, d)
	})
}

// TestPartialStackZeroPE pins the zero-PE edge: an idle PE's empty stack
// encodes to the one-byte zero-level frame and decodes back to empty.
// Checkpoint and donation framing rely on this being valid, not an error.
func TestPartialStackZeroPE(t *testing.T) {
	c := SyntheticCodec{}
	s := stack.New[synthetic.Node]()
	msg := EncodeStack[synthetic.Node](c, s)
	if len(msg) != 1 {
		t.Fatalf("empty stack encodes to %d bytes, want 1", len(msg))
	}
	got, err := DecodeStack[synthetic.Node](c, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() || got.Depth() != 0 {
		t.Fatalf("decoded empty stack has size %d depth %d", got.Size(), got.Depth())
	}
	if again := EncodeStack[synthetic.Node](c, got); !bytes.Equal(msg, again) {
		t.Error("empty-stack encoding is not byte-stable")
	}
}

// roundTripPartial checks that a donated fragment survives encode/decode
// with order, size, depth, and bytes intact.
func roundTripPartial[S comparable](t *testing.T, c Codec[S], s *stack.Stack[S]) {
	t.Helper()
	if s.Empty() {
		t.Fatal("donation is empty")
	}
	msg := EncodeStack[S](c, s)
	got, err := DecodeStack[S](c, msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != s.Size() || got.Depth() != s.Depth() {
		t.Fatalf("size/depth changed: %d/%d -> %d/%d", s.Size(), s.Depth(), got.Size(), got.Depth())
	}
	a, b := s.Flatten(), got.Flatten()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d changed", i)
		}
	}
	if again := EncodeStack[S](c, got); !bytes.Equal(msg, again) {
		t.Error("re-encoding changed bytes")
	}
}
