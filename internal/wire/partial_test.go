package wire

import (
	"bytes"
	"testing"

	"simdtree/internal/puzzle"
	"simdtree/internal/queens"
	"simdtree/internal/scan"
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
// ships: the donor's remainder on PE 0 and the donated fragment on PE 1.
func splitBottom[S any](levels ...[]S) *stack.Arena[S] {
	a := stack.NewArena[S](2)
	for _, lv := range levels {
		a.PushLevel(0, lv)
	}
	stack.BottomNode[S]{}.SplitBlock(a, []scan.Pair{{From: 0, To: 1}}, []int{0}, nil)
	a.SyncBits(0)
	a.SyncBits(1)
	return a
}

// TestPartialStackInteriorEmptyLevel splits the sole bottom node off a
// stack, draining the donor's bottom level.  The arena drops the emptied
// level the moment it forms, so no hole survives below the two live
// levels: the remainder encodes canonically, decodes to the same search
// order, and re-encoding is byte-stable.
func TestPartialStackInteriorEmptyLevel(t *testing.T) {
	c := PuzzleCodec{}
	a := splitBottom(
		[]puzzle.Node{puzzle.Scramble(1, 10)},
		[]puzzle.Node{puzzle.Scramble(2, 12), puzzle.Scramble(3, 14)},
		[]puzzle.Node{puzzle.Scramble(4, 16), puzzle.Scramble(5, 18)},
	)
	if a.Size(1) != 1 {
		t.Fatalf("bottom-node split donated %d nodes, want 1", a.Size(1))
	}
	if a.Depth(0) != 2 || a.Size(0) != 4 {
		t.Fatalf("donor depth/size = %d/%d, want 2/4 (drained level dropped)", a.Depth(0), a.Size(0))
	}
	roundTripPartial[puzzle.Node](t, c, a, 0)
}

// TestPartialStackSingleLevelDonation round-trips the smallest real
// donation — one level, as bottom-node splitting produces — through every
// workload codec.
func TestPartialStackSingleLevelDonation(t *testing.T) {
	t.Run("puzzle", func(t *testing.T) {
		a := splitBottom([]puzzle.Node{puzzle.Scramble(7, 20), puzzle.Scramble(8, 22)})
		roundTripPartial[puzzle.Node](t, PuzzleCodec{}, a, 1)
	})
	t.Run("synthetic", func(t *testing.T) {
		a := splitBottom([]synthetic.Node{{Budget: 900, Seed: 11}, {Budget: 41, Seed: 12}})
		roundTripPartial[synthetic.Node](t, SyntheticCodec{}, a, 1)
	})
	t.Run("queens", func(t *testing.T) {
		dom := queens.New(8)
		a := splitBottom(dom.Expand(dom.Root(), nil))
		roundTripPartial[queens.Node](t, QueensCodec{}, a, 1)
	})
}

// TestPartialStackZeroPE pins the zero-PE edge: an idle PE's empty stack
// encodes to the one-byte zero-level frame and decodes back to empty.
// Checkpoint and donation framing rely on this being valid, not an error.
func TestPartialStackZeroPE(t *testing.T) {
	c := SyntheticCodec{}
	msg := EncodeArena[synthetic.Node](nil, c, stack.NewArena[synthetic.Node](1), 0)
	if len(msg) != 1 {
		t.Fatalf("empty stack encodes to %d bytes, want 1", len(msg))
	}
	got, err := decodeFresh[synthetic.Node](t, c, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty(0) || got.Depth(0) != 0 || got.WorkBits().Get(0) {
		t.Fatalf("decoded empty stack has size %d depth %d", got.Size(0), got.Depth(0))
	}
	if again := EncodeArena[synthetic.Node](nil, c, got, 0); !bytes.Equal(msg, again) {
		t.Error("empty-stack encoding is not byte-stable")
	}
}

// roundTripPartial checks that what PE pe ships survives encode/decode
// with order, size, depth, and bytes intact.
func roundTripPartial[S comparable](t *testing.T, c Codec[S], a *stack.Arena[S], pe int) {
	t.Helper()
	if a.Empty(pe) {
		t.Fatal("nothing to ship")
	}
	msg := EncodeArena[S](nil, c, a, pe)
	got, err := decodeFresh[S](t, c, msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size(0) != a.Size(pe) || got.Depth(0) != a.Depth(pe) {
		t.Fatalf("size/depth changed: %d/%d -> %d/%d", a.Size(pe), a.Depth(pe), got.Size(0), got.Depth(0))
	}
	x, y := flatten(a, pe), flatten(got, 0)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("node %d changed", i)
		}
	}
	if again := EncodeArena[S](nil, c, got, 0); !bytes.Equal(msg, again) {
		t.Error("re-encoding changed bytes")
	}
}
