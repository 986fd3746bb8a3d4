package wire

import (
	"encoding/binary"

	"simdtree/internal/puzzle"
	"simdtree/internal/queens"
	"simdtree/internal/synthetic"
)

// PuzzleCodec serialises 15-puzzle nodes into 14 bytes: the 16 tiles
// nibble-packed into 8 bytes (every tile value fits in 4 bits), the blank
// position, g and h as 16-bit values, and the previous move.  On the
// CM-2 this is two or three 32-bit words per node — the "rather compact
// representation" the paper leans on.
type PuzzleCodec struct{}

// puzzleNodeSize is the fixed encoding size of one node.
const puzzleNodeSize = 8 + 1 + 2 + 2 + 1

// Name implements Codec.
func (PuzzleCodec) Name() string { return "puzzle" }

// AppendNode implements Codec.
func (PuzzleCodec) AppendNode(buf []byte, n puzzle.Node) []byte {
	for i := 0; i < puzzle.Cells; i += 2 {
		buf = append(buf, n.Tiles[i]<<4|n.Tiles[i+1])
	}
	buf = append(buf, n.Blank)
	buf = binary.BigEndian.AppendUint16(buf, n.G)
	buf = binary.BigEndian.AppendUint16(buf, n.H)
	buf = append(buf, n.Prev)
	return buf
}

// DecodeNode implements Codec.
func (PuzzleCodec) DecodeNode(b []byte) (puzzle.Node, []byte, error) {
	var n puzzle.Node
	if len(b) < puzzleNodeSize {
		return n, b, ErrTruncated
	}
	for i := 0; i < puzzle.Cells/2; i++ {
		n.Tiles[2*i] = b[i] >> 4
		n.Tiles[2*i+1] = b[i] & 0x0F
	}
	n.Blank = b[8]
	n.G = binary.BigEndian.Uint16(b[9:])
	n.H = binary.BigEndian.Uint16(b[11:])
	n.Prev = b[13]
	return n, b[puzzleNodeSize:], nil
}

// SyntheticCodec serialises synthetic-tree nodes: a canonical varint budget
// plus the 8-byte seed.
type SyntheticCodec struct{}

// Name implements Codec.
func (SyntheticCodec) Name() string { return "synthetic" }

// AppendNode implements Codec.
func (SyntheticCodec) AppendNode(buf []byte, n synthetic.Node) []byte {
	buf = binary.AppendVarint(buf, n.Budget)
	return binary.BigEndian.AppendUint64(buf, n.Seed)
}

// DecodeNode implements Codec.
func (SyntheticCodec) DecodeNode(b []byte) (synthetic.Node, []byte, error) {
	var n synthetic.Node
	budget, sz := uvarint(b)
	if sz <= 0 {
		return n, b, varintErr(sz)
	}
	if len(b) < sz+8 {
		return n, b, ErrTruncated
	}
	n.Budget = unzigzag(budget)
	n.Seed = binary.BigEndian.Uint64(b[sz:])
	return n, b[sz+8:], nil
}

// QueensCodec serialises N-queens nodes: board size, row, and the three
// attack masks as 32-bit words.
type QueensCodec struct{}

// queensNodeSize is the fixed encoding size of one node.
const queensNodeSize = 1 + 1 + 4 + 4 + 4

// Name implements Codec.
func (QueensCodec) Name() string { return "queens" }

// AppendNode implements Codec.
func (QueensCodec) AppendNode(buf []byte, n queens.Node) []byte {
	buf = append(buf, n.N, n.Row)
	buf = binary.BigEndian.AppendUint32(buf, n.Cols)
	buf = binary.BigEndian.AppendUint32(buf, n.D1)
	buf = binary.BigEndian.AppendUint32(buf, n.D2)
	return buf
}

// DecodeNode implements Codec.
func (QueensCodec) DecodeNode(b []byte) (queens.Node, []byte, error) {
	var n queens.Node
	if len(b) < queensNodeSize {
		return n, b, ErrTruncated
	}
	n.N, n.Row = b[0], b[1]
	n.Cols = binary.BigEndian.Uint32(b[2:])
	n.D1 = binary.BigEndian.Uint32(b[6:])
	n.D2 = binary.BigEndian.Uint32(b[10:])
	return n, b[queensNodeSize:], nil
}
