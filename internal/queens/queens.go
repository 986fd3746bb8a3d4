// Package queens implements the N-queens backtracking tree, a second real
// workload exercising the same search API as the 15-puzzle: place one
// queen per row so that no two attack each other, exhaustively counting
// solutions.  Its trees are unstructured in the sense the paper cares
// about — subtree sizes under different first-row placements vary widely —
// and its total node count scales smoothly with N, which makes it a
// convenient mid-size workload for examples and integration tests.
package queens

// Node is a partial placement: queens fixed in rows 0..Row-1.
type Node struct {
	N    uint8  // board size
	Row  uint8  // next row to fill
	Cols uint32 // columns already attacked
	D1   uint32 // "/" diagonals attacked (row+col)
	D2   uint32 // "\" diagonals attacked (row-col+N-1)
}

// Domain is the N-queens search domain; it implements search.Domain[Node].
type Domain struct {
	N int
}

// New returns the N-queens domain; n must be between 1 and 16.
func New(n int) *Domain {
	if n < 1 || n > 16 {
		panic("queens: board size out of range [1,16]")
	}
	return &Domain{N: n}
}

// Root implements search.Domain.
func (d *Domain) Root() Node { return Node{N: uint8(d.N)} }

// Goal implements search.Domain: all rows filled.
func (d *Domain) Goal(n Node) bool { return n.Row == n.N }

// Expand implements search.Domain: try every non-attacked column of the
// next row.
func (d *Domain) Expand(n Node, buf []Node) []Node {
	if n.Row == n.N {
		return buf
	}
	for col := uint8(0); col < n.N; col++ {
		d1 := n.Row + col
		d2 := n.Row - col + n.N - 1
		if n.Cols&(1<<col) != 0 || n.D1&(1<<d1) != 0 || n.D2&(1<<d2) != 0 {
			continue
		}
		buf = append(buf, Node{
			N:    n.N,
			Row:  n.Row + 1,
			Cols: n.Cols | 1<<col,
			D1:   n.D1 | 1<<d1,
			D2:   n.D2 | 1<<d2,
		})
	}
	return buf
}
