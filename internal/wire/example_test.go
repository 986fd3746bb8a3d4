package wire_test

import (
	"fmt"

	"simdtree/internal/puzzle"
	"simdtree/internal/stack"
	"simdtree/internal/wire"
)

// The compactness the paper's constant-message-size assumption rests on:
// a whole donated stack is a few dozen bytes on the wire.
func ExampleEncodeStack() {
	s := stack.New(puzzle.Scramble(1, 20))
	s.PushLevel([]puzzle.Node{puzzle.Scramble(2, 10), puzzle.Scramble(3, 10)})

	msg := wire.EncodeStack[puzzle.Node](wire.PuzzleCodec{}, s)
	back, err := wire.DecodeStack[puzzle.Node](wire.PuzzleCodec{}, msg)
	fmt.Printf("3 nodes in %d bytes; round trip: %d nodes, err=%v\n", len(msg), back.Size(), err)
	// Output:
	// 3 nodes in 45 bytes; round trip: 3 nodes, err=<nil>
}
