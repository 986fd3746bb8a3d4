package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"simdtree/internal/puzzle"
	"simdtree/internal/queens"
	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
)

// TestPuzzleCodecRoundTrip property-checks encode/decode over random
// reachable positions.
func TestPuzzleCodecRoundTrip(t *testing.T) {
	c := PuzzleCodec{}
	f := func(seed uint64, steps uint8) bool {
		n := puzzle.Scramble(seed, int(steps%80))
		n.G = uint16(seed % 50)
		n.Prev = uint8(seed % 4)
		buf := c.AppendNode(nil, n)
		if len(buf) != puzzleNodeSize {
			return false
		}
		got, rest, err := c.DecodeNode(buf)
		return err == nil && len(rest) == 0 && got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPuzzleCodecTruncated(t *testing.T) {
	c := PuzzleCodec{}
	buf := c.AppendNode(nil, puzzle.Goal())
	if _, _, err := c.DecodeNode(buf[:5]); err == nil {
		t.Error("truncated node accepted")
	}
}

func TestSyntheticCodecRoundTrip(t *testing.T) {
	c := SyntheticCodec{}
	f := func(budget int64, seed uint64) bool {
		if budget < 0 {
			budget = -budget
		}
		n := synthetic.Node{Budget: budget, Seed: seed}
		got, rest, err := c.DecodeNode(c.AppendNode(nil, n))
		return err == nil && len(rest) == 0 && got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQueensCodecRoundTrip(t *testing.T) {
	c := QueensCodec{}
	d := queens.New(10)
	n := d.Root()
	for depth := 0; depth < 5; depth++ {
		buf := c.AppendNode(nil, n)
		got, rest, err := c.DecodeNode(buf)
		if err != nil || len(rest) != 0 || got != n {
			t.Fatalf("round trip failed at depth %d: %v", depth, err)
		}
		children := d.Expand(n, nil)
		if len(children) == 0 {
			break
		}
		n = children[0]
	}
}

// arenaOf returns a one-PE arena holding the given levels, bottom first.
func arenaOf[S any](levels ...[]S) *stack.Arena[S] {
	a := stack.NewArena[S](1)
	for _, lv := range levels {
		a.PushLevel(0, lv)
	}
	return a
}

// flatten returns PE pe's nodes bottom-to-top.
func flatten[S any](a *stack.Arena[S], pe int) (out []S) {
	a.ForEachLevel(pe, func(lv []S) { out = append(out, lv...) })
	return out
}

// decodeFresh decodes b into PE 0 of a fresh one-PE arena.  On a refusal it
// also checks the decoder's promise: the addressed PE is still empty, both
// flag bits clear.
func decodeFresh[S any](t *testing.T, c Codec[S], b []byte) (*stack.Arena[S], error) {
	t.Helper()
	a := stack.NewArena[S](1)
	n, err := (&ArenaDecoder[S]{Codec: c}).Decode(b, a, 0)
	if err != nil && (n != 0 || !a.Empty(0) || a.Depth(0) != 0 || a.WorkBits().Get(0) || a.SplitBits().Get(0)) {
		t.Errorf("refused payload %x left %d nodes in %d levels behind (reported %d)", b, a.Size(0), a.Depth(0), n)
	}
	if err == nil && n != a.Size(0) {
		t.Errorf("Decode reported %d nodes, the PE holds %d", n, a.Size(0))
	}
	return a, err
}

// TestStackRoundTrip encodes whole stacks (with level structure) and
// decodes them back.
func TestStackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := PuzzleCodec{}
	for trial := 0; trial < 100; trial++ {
		s := stack.NewArena[puzzle.Node](1)
		levels := rng.Intn(5)
		for l := 0; l < levels; l++ {
			width := 1 + rng.Intn(3)
			lv := make([]puzzle.Node, width)
			for i := range lv {
				lv[i] = puzzle.Scramble(rng.Uint64(), rng.Intn(30))
			}
			s.PushLevel(0, lv)
		}
		msg := EncodeArena[puzzle.Node](nil, c, s, 0)
		got, err := decodeFresh[puzzle.Node](t, c, msg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Size(0) != s.Size(0) || got.Depth(0) != s.Depth(0) {
			t.Fatalf("trial %d: size/depth changed: %d/%d -> %d/%d",
				trial, s.Size(0), s.Depth(0), got.Size(0), got.Depth(0))
		}
		a, b := flatten(s, 0), flatten(got, 0)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: node %d changed", trial, i)
			}
		}
	}
}

func TestDecodeStackErrors(t *testing.T) {
	c := PuzzleCodec{}
	if _, err := decodeFresh[puzzle.Node](t, c, nil); err == nil {
		t.Error("empty message accepted")
	}
	msg := EncodeArena[puzzle.Node](nil, c, arenaOf([]puzzle.Node{puzzle.Goal()}), 0)
	if _, err := decodeFresh[puzzle.Node](t, c, msg[:len(msg)-1]); err == nil {
		t.Error("truncated stack accepted")
	}
	if _, err := decodeFresh[puzzle.Node](t, c, append(msg, 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestDecodeStackStrict is the canonicality table of the level framing:
// a stack has one byte form, and every other spelling of it is refused
// with a classified error rather than normalised on re-encode — and a
// refusal appends nothing, to an empty PE or above a busy one's top.
func TestDecodeStackStrict(t *testing.T) {
	c := SyntheticCodec{}
	s := arenaOf([]synthetic.Node{{Budget: 11, Seed: 1}, {Budget: 7, Seed: 2}}, []synthetic.Node{{Budget: 5, Seed: 3}})
	valid := EncodeArena[synthetic.Node](nil, c, s, 0)
	// valid = levels(2) | count(2) | budget(22) seed*8 | ...
	splice := func(at int, with ...byte) []byte {
		out := append([]byte(nil), valid[:at]...)
		return append(append(out, with...), valid[at+1:]...)
	}
	overflow := append(bytes.Repeat([]byte{0xFF}, 9), 0x02)
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty message", nil, ErrTruncated},
		{"cut mid node", valid[:len(valid)-3], ErrCorrupt},
		{"trailing byte", append(valid[:len(valid):len(valid)], 0), ErrCorrupt},
		{"non-minimal level count", splice(0, 0x82, 0x00), ErrCorrupt},
		{"overflowing level count", splice(0, overflow...), ErrCorrupt},
		{"level count beyond the message", splice(0, 0x7F), ErrCorrupt},
		{"non-minimal node count", splice(1, 0x82, 0x00), ErrCorrupt},
		{"overflowing node count", splice(1, overflow...), ErrCorrupt},
		{"zero node count", splice(1, 0x00), ErrCorrupt},
		{"node count beyond the message", splice(1, 0x7F), ErrCorrupt},
		{"non-minimal budget", splice(2, 0x96, 0x00), ErrCorrupt},
		{"overflowing budget", splice(2, overflow...), ErrCorrupt},
	}
	// One decoder for the whole table and a busy PE beside the empty one: a
	// refusal must not leak the scratch of the payload before it either.
	dec := ArenaDecoder[synthetic.Node]{Codec: c}
	busy := arenaOf([]synthetic.Node{{Budget: 99, Seed: 9}})
	for _, tc := range cases {
		if _, err := decodeFresh[synthetic.Node](t, c, tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if _, err := dec.Decode(tc.in, busy, 0); !errors.Is(err, tc.want) || busy.Size(0) != 1 || busy.Depth(0) != 1 {
			t.Errorf("%s: above a busy top: %v, PE now %d nodes in %d levels", tc.name, err, busy.Size(0), busy.Depth(0))
		}
		if n, err := dec.Decode(valid, stack.NewArena[synthetic.Node](1), 0); err != nil || n != 3 {
			t.Errorf("%s: valid payload after the refusal: %d nodes, %v", tc.name, n, err)
		}
	}
	got, err := decodeFresh[synthetic.Node](t, c, valid)
	if err != nil {
		t.Fatal(err)
	}
	if again := EncodeArena[synthetic.Node](nil, c, got, 0); !bytes.Equal(again, valid) {
		t.Errorf("decode→encode not byte-identical:\n in %x\nout %x", valid, again)
	}
}

func TestNodeSize(t *testing.T) {
	c := PuzzleCodec{}
	if got := NodeSize[puzzle.Node](c, puzzle.Goal()); got != puzzleNodeSize {
		t.Errorf("NodeSize = %d, want %d", got, puzzleNodeSize)
	}
}

// TestMessageCompactness documents the paper's compactness claim: a
// donated bottom-node message is tens of bytes, not kilobytes.
func TestMessageCompactness(t *testing.T) {
	s := arenaOf([]puzzle.Node{puzzle.Scramble(3, 20)})
	msg := EncodeArena[puzzle.Node](nil, PuzzleCodec{}, s, 0)
	if len(msg) > 32 {
		t.Errorf("single-node transfer message is %d bytes; expected a compact few dozen", len(msg))
	}
}
