// Package puzzle implements the 15-puzzle, the workload of the paper's
// CM-2 experiments (Section 5): a 4x4 tray of 15 numbered tiles and one
// blank; a move slides a tile adjacent to the blank into it.  The package
// provides the Manhattan-distance heuristic (maintained incrementally),
// IDA*-ready cost bounds, a solvability test, and a deterministic
// scramble generator used to construct problem instances whose search
// spaces land in the paper's size tiers.
//
// The paper drew its instances from Korf (1985).  Those exact start
// positions are external data we cannot verify offline, so — per the
// reproduction's substitution rule — instances are generated by seeded
// random walks from the goal state instead; they are solvable by
// construction, and instance difficulty (the problem size W) is measured,
// not assumed.  See DESIGN.md §7.
package puzzle

import (
	"errors"
	"fmt"
	"strings"
)

// Side is the tray dimension and Cells the number of board positions.
const (
	Side  = 4
	Cells = Side * Side
)

// Node is a search node: a board position plus the path cost g and the
// incrementally maintained Manhattan-distance heuristic h.  The zero tile
// is the blank.  Node is a small value type; copying it is cheap and the
// SIMD engine's stacks store it by value.
type Node struct {
	Tiles [Cells]uint8 // Tiles[pos] = tile at pos; 0 is the blank
	Blank uint8        // position of the blank
	G     uint16       // path cost from the root
	H     uint16       // Manhattan distance to the goal
	Prev  uint8        // last move applied (see move constants); NoMove at the root
}

// Move directions describe how the blank travels.
const (
	MoveUp uint8 = iota
	MoveDown
	MoveLeft
	MoveRight
	NoMove uint8 = 0xFF
)

// inverse[m] is the move that undoes m; successor generation skips it so
// the search tree contains no trivial 2-cycles (as in Korf's IDA*).
var inverse = [4]uint8{MoveDown, MoveUp, MoveRight, MoveLeft}

// mdTable[t][p] is the Manhattan distance of tile t from position p to its
// goal position (tile t lives at position t; the blank's distance is 0).
var mdTable [Cells][Cells]uint8

func init() {
	for t := 1; t < Cells; t++ {
		gr, gc := t/Side, t%Side
		for p := 0; p < Cells; p++ {
			r, c := p/Side, p%Side
			dr, dc := r-gr, c-gc
			if dr < 0 {
				dr = -dr
			}
			if dc < 0 {
				dc = -dc
			}
			mdTable[t][p] = uint8(dr + dc)
		}
	}
}

// Goal returns the solved position: tile i at position i, blank at the
// top-left corner.
func Goal() Node {
	var n Node
	for i := range n.Tiles {
		n.Tiles[i] = uint8(i)
	}
	n.Blank = 0
	n.Prev = NoMove
	return n
}

// FromTiles builds a root node from an explicit board layout, validating
// that it is a permutation of 0..15 and that it is solvable.
func FromTiles(tiles [Cells]uint8) (Node, error) {
	var n Node
	var seen [Cells]bool
	blank := -1
	for p, t := range tiles {
		if int(t) >= Cells || seen[t] {
			return n, fmt.Errorf("puzzle: invalid board: tile %d at position %d", t, p)
		}
		seen[t] = true
		if t == 0 {
			blank = p
		}
	}
	if blank < 0 {
		return n, errors.New("puzzle: board has no blank")
	}
	n.Tiles = tiles
	n.Blank = uint8(blank)
	n.Prev = NoMove
	n.H = uint16(manhattan(tiles))
	if !Solvable(tiles) {
		return n, errors.New("puzzle: board is not solvable")
	}
	return n, nil
}

// manhattan computes the full Manhattan distance of a layout.
func manhattan(tiles [Cells]uint8) int {
	sum := 0
	for p, t := range tiles {
		if t != 0 {
			sum += int(mdTable[t][p])
		}
	}
	return sum
}

// Solvable reports whether the layout can reach the goal: each slide is a
// transposition of the blank with a tile, so it flips the parity of the
// full 16-element permutation and simultaneously flips the parity of the
// blank's Manhattan distance from its corner.  Their XOR is therefore
// invariant, and it is zero at the goal: a position is reachable exactly
// when the permutation parity (blank included) equals the parity of the
// blank's distance from position 0.
func Solvable(tiles [Cells]uint8) bool {
	inversions := 0
	var blank int
	for i := 0; i < Cells; i++ {
		if tiles[i] == 0 {
			blank = i
		}
		for j := i + 1; j < Cells; j++ {
			if tiles[j] < tiles[i] {
				inversions++
			}
		}
	}
	blankDist := blank/Side + blank%Side // goal corner is position 0
	return inversions%2 == blankDist%2
}

// apply returns the node after sliding the blank in direction m, and
// whether the move is legal from n's blank position.
func apply(n Node, m uint8) (Node, bool) {
	b := int(n.Blank)
	r, c := b/Side, b%Side
	var nb int
	switch m {
	case MoveUp:
		if r == 0 {
			return n, false
		}
		nb = b - Side
	case MoveDown:
		if r == Side-1 {
			return n, false
		}
		nb = b + Side
	case MoveLeft:
		if c == 0 {
			return n, false
		}
		nb = b - 1
	case MoveRight:
		if c == Side-1 {
			return n, false
		}
		nb = b + 1
	default:
		return n, false
	}
	t := n.Tiles[nb]
	// The tile at nb moves into the old blank position b.
	n.H += uint16(mdTable[t][b]) - uint16(mdTable[t][nb])
	n.Tiles[b], n.Tiles[nb] = t, 0
	n.Blank = uint8(nb)
	n.G++
	n.Prev = m
	return n, true
}

// String renders the board as four rows of tiles, the blank as "__".
func (n Node) String() string {
	var b strings.Builder
	for p, t := range n.Tiles {
		if t == 0 {
			b.WriteString("__")
		} else {
			fmt.Fprintf(&b, "%2d", t)
		}
		if p%Side == Side-1 {
			b.WriteByte('\n')
		} else {
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// Domain adapts a start position to the search.CostDomain interface.  It
// is stateless apart from the start node and safe for concurrent use.
type Domain struct {
	Start Node
}

// NewDomain returns the search domain rooted at start.
func NewDomain(start Node) *Domain { return &Domain{Start: start} }

// Root implements search.Domain.
func (d *Domain) Root() Node { return d.Start }

// Goal implements search.Domain.
func (d *Domain) Goal(n Node) bool { return n.H == 0 }

// Expand implements search.Domain, generating every legal slide except the
// one that undoes the move that produced n.
func (d *Domain) Expand(n Node, buf []Node) []Node {
	for m := uint8(0); m < 4; m++ {
		if n.Prev != NoMove && m == inverse[n.Prev] {
			continue
		}
		if c, ok := apply(n, m); ok {
			buf = append(buf, c)
		}
	}
	return buf
}

// F implements search.CostDomain: the admissible bound g + h.
func (d *Domain) F(n Node) int { return int(n.G) + int(n.H) }

// splitmix64 advances the scramble generator; it is a tiny, well-mixed
// deterministic PRNG so instances are reproducible across platforms.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Scramble returns a start position obtained by a random walk of `steps`
// legal moves from the goal, never immediately undoing the previous move.
// The result is solvable by construction, its optimal solution length is at
// most steps, and the walk is fully determined by seed.  The returned
// node's G is zero and Prev is NoMove: it is a fresh root.
func Scramble(seed uint64, steps int) Node {
	n := Goal()
	state := seed
	for i := 0; i < steps; {
		m := uint8(splitmix64(&state) & 3)
		if n.Prev != NoMove && m == inverse[n.Prev] {
			continue
		}
		if next, ok := apply(n, m); ok {
			n = next
			i++
		}
	}
	n.G = 0
	n.Prev = NoMove
	return n
}
