package wire_test

import (
	"fmt"

	"simdtree/internal/puzzle"
	"simdtree/internal/stack"
	"simdtree/internal/wire"
)

// The compactness the paper's constant-message-size assumption rests on:
// a whole donated stack is a few dozen bytes on the wire.
func ExampleEncodeArena() {
	a := stack.NewArena[puzzle.Node](2)
	a.PushLevel(0, []puzzle.Node{puzzle.Scramble(1, 20)})
	a.PushLevel(0, []puzzle.Node{puzzle.Scramble(2, 10), puzzle.Scramble(3, 10)})

	msg := wire.EncodeArena[puzzle.Node](nil, wire.PuzzleCodec{}, a, 0)
	dec := wire.ArenaDecoder[puzzle.Node]{Codec: wire.PuzzleCodec{}}
	n, err := dec.Decode(msg, a, 1)
	fmt.Printf("3 nodes in %d bytes; round trip: %d nodes, err=%v\n", len(msg), n, err)
	// Output:
	// 3 nodes in 45 bytes; round trip: 3 nodes, err=<nil>
}
