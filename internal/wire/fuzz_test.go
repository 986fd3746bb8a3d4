package wire

import (
	"bytes"
	"errors"
	"testing"

	"simdtree/internal/puzzle"
	"simdtree/internal/synthetic"
)

// FuzzDecodeStack feeds arbitrary bytes to the stack decoder under a
// fixed-size and a variable-size node codec: it must either return a
// classified error and leave the addressed PE empty, or parse — never
// panic or loop — and whatever it parses into the arena re-encodes to the
// input, byte for byte.
func FuzzDecodeStack(f *testing.F) {
	p := arenaOf([]puzzle.Node{puzzle.Goal(), puzzle.Scramble(1, 10)}, []puzzle.Node{puzzle.Scramble(2, 5)})
	f.Add(EncodeArena[puzzle.Node](nil, PuzzleCodec{}, p, 0))
	s := arenaOf([]synthetic.Node{{Budget: 300, Seed: 1}, {Budget: 7, Seed: 2}}, []synthetic.Node{{Budget: 1 << 40, Seed: 3}})
	valid := EncodeArena[synthetic.Node](nil, SyntheticCodec{}, s, 0)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(append([]byte{0x82, 0x00}, valid[1:]...)) // non-minimal level count
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCanonical[puzzle.Node](t, PuzzleCodec{}, data)
		checkCanonical[synthetic.Node](t, SyntheticCodec{}, data)
	})
}

func checkCanonical[S any](t *testing.T, c Codec[S], data []byte) {
	got, err := decodeFresh(t, c, data)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: unclassified error: %v", c.Name(), err)
		}
		return
	}
	if round := EncodeArena(nil, c, got, 0); !bytes.Equal(round, data) {
		t.Fatalf("%s: decode→encode not canonical:\n in %x\nout %x", c.Name(), data, round)
	}
}

// FuzzDecodeNode checks the node decoder on arbitrary input.
func FuzzDecodeNode(f *testing.F) {
	c := PuzzleCodec{}
	f.Add(c.AppendNode(nil, puzzle.Goal()))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, rest, err := c.DecodeNode(data)
		if err != nil {
			return
		}
		if len(data)-len(rest) != puzzleNodeSize {
			t.Error("decoder consumed the wrong number of bytes")
		}
		_ = n
	})
}
