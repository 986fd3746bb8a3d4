// Package match implements the two schemes the paper studies for mapping
// idle processors to busy donors during a load-balancing phase (Section 2):
//
//   - nGP — the pre-existing scheme of Powley/Korf/Ferguson and
//     Mahanti/Daniels: both sets are enumerated from processor 0 and matched
//     rank-to-rank by rendezvous allocation.  Busy processors early in the
//     enumeration donate over and over, which drives the phase bound
//     V(P) <= log^((2x-1)/(1-x)) W (Appendix B).
//
//   - GP — the paper's new global-pointer scheme: a pointer remembers the
//     last donor of the previous phase and the busy enumeration starts just
//     after it, wrapping around, so the donation burden rotates across the
//     machine and V(P) <= ceil(1/(1-x)) (Section 4.1).
//
// Matchers operate on busy/idle flags only; stacks are split by the engine.
// A Matcher is deliberately sequential state (the global pointer), matching
// how the CM-2 host maintained it between phases.  Each scheme has one
// matching algorithm, MatchBits, over word-packed flags (scan.Bits); Match
// accepts the same flags as []bool, packs them and calls it.  Both
// matchers keep reusable scratch so the per-phase matching step does not
// allocate in steady state.
package match

import (
	"math/bits"

	"simdtree/internal/scan"
)

// Matcher pairs idle processors with busy donors for one transfer round.
type Matcher interface {
	// Name identifies the scheme ("nGP" or "GP") in reports.
	Name() string
	// Match returns donor-to-receiver pairs.  busy[i] reports that
	// processor i can split its work (at least two stack nodes); idle[i]
	// that it has none.  Exactly min(#busy, #idle) pairs are returned.
	// The returned slice is the matcher's reusable scratch: it is valid
	// until the next Match or MatchBits call on the same matcher.
	Match(busy, idle []bool) []scan.Pair
	// Reset clears any cross-phase state (the global pointer).
	Reset()
}

// BitMatcher is a Matcher that also accepts the engine's flag bitsets
// directly, so the setup enumerations visit only the set bits instead of
// walking P booleans.  MatchBits returns exactly the pairs Match does for
// the equivalent []bool flags — Match is MatchBits behind a packing step.
type BitMatcher interface {
	Matcher
	// MatchBits is Match over word-packed flags; n is the machine size.
	MatchBits(busy, idle scan.Bits, n int) []scan.Pair
}

// arena is the reusable matching scratch shared by both schemes: the rank
// lists of one round, the returned pair slice, and the bit vectors Match
// packs its []bool arguments into.  None of it is semantic state — Reset
// does not touch it — it only keeps steady-state matching allocation-free.
type arena struct {
	ranks    []int // receiver of rank r at [r], donor of rank r at [matched+r]
	pairs    []scan.Pair
	busyBits scan.Bits
	idleBits scan.Bits
}

// matchBits is the setup step of both schemes, read straight off the flag
// words: matched = min(#busy, #idle) by popcount, the receiver of rank r is
// the r-th idle processor from processor 0 and the donor of rank r the r-th
// busy one from start, wrapping around — O(matched + P/64), nothing P-long.
// The pairs come out in ascending donor index (the donors that wrapped below
// start first), the order every transfer round, donor trace and golden is
// pinned to.  last is the donor of rank matched-1, where the global pointer
// lands, or -1 when nothing matched.
func (a *arena) matchBits(busy, idle scan.Bits, start int) (pairs []scan.Pair, last int) {
	matched := min(busy.CountBits(), idle.CountBits())
	if matched == 0 {
		return a.pairs[:0], -1
	}
	if cap(a.ranks) < 2*matched {
		// At least doubling: rounds that creep up phase by phase must not
		// reallocate every phase.
		n := max(matched, cap(a.ranks))
		a.ranks = make([]int, 2*n)
		a.pairs = make([]scan.Pair, n)
	}
	receivers, donors := a.ranks[:matched], a.ranks[matched:2*matched]
	listSet(receivers, idle, 0)
	// Ranks [0, tail) sit at or after start; the list running dry there
	// means the remaining ranks wrap to the lowest busy processors, all of
	// them below start because #busy >= matched.
	tail := listSet(donors, busy, start)
	listSet(donors[tail:], busy, 0)
	pairs = a.pairs[:matched]
	for k := range pairs {
		r := k + tail // the wrapped donors, ranks [tail, matched), have the lowest indices
		if r >= matched {
			r -= matched
		}
		pairs[k] = scan.Pair{From: donors[r], To: receivers[r]}
	}
	return pairs, donors[matched-1]
}

// listSet writes the indices of the set flags of b at or after lo into dst,
// ascending, until dst is full or the flags run out, and returns how many
// it wrote.
func listSet(dst []int, b scan.Bits, lo int) int {
	k := 0
	mask := ^uint64(0) << (uint(lo) & 63)
	for wi := lo >> 6; wi < len(b) && k < len(dst); wi++ {
		for w := b[wi] & mask; w != 0 && k < len(dst); w &= w - 1 {
			dst[k] = wi<<6 + bits.TrailingZeros64(w)
			k++
		}
		mask = ^uint64(0)
	}
	return k
}

// pack word-packs the two flag slices into the arena's bit scratch.
func (a *arena) pack(busy, idle []bool) (scan.Bits, scan.Bits) {
	if len(busy) != len(idle) {
		panic("match: busy and idle flags of unequal length")
	}
	a.busyBits = packBools(a.busyBits, busy)
	a.idleBits = packBools(a.idleBits, idle)
	return a.busyBits, a.idleBits
}

// packBools writes flags into dst, grown once to the largest machine seen
// and resliced after that, a whole word at a time and branch-free: packing
// is all that is P-long in Match.  No bit at or beyond len(flags) is set.
func packBools(dst scan.Bits, flags []bool) scan.Bits {
	words := (len(flags) + 63) / 64
	if cap(dst) < words {
		dst = scan.NewBits(len(flags))
	}
	dst = dst[:words]
	for wi := range dst {
		chunk := flags[wi*64 : min(wi*64+64, len(flags))]
		var w uint64
		j := 0
		for ; j+8 <= len(chunk); j += 8 { // eight independent terms: a tree, not a chain of ORs
			c := chunk[j : j+8 : j+8]
			w |= (bit(c[0]) | bit(c[1])<<1 | bit(c[2])<<2 | bit(c[3])<<3 |
				bit(c[4])<<4 | bit(c[5])<<5 | bit(c[6])<<6 | bit(c[7])<<7) << uint(j)
		}
		for ; j < len(chunk); j++ {
			w |= bit(chunk[j]) << uint(j)
		}
		dst[wi] = w
	}
	return dst
}

// bit is f as 0 or 1; the compiler turns it into a zero-extension.
func bit(f bool) uint64 {
	if f {
		return 1
	}
	return 0
}

// NGP is the pointer-free matching scheme of the prior work: enumeration
// always starts at processor 0.  The zero value is ready for use.
type NGP struct {
	arena
}

// Name implements Matcher.
func (*NGP) Name() string { return "nGP" }

// Reset implements Matcher; NGP carries no cross-phase state.
func (*NGP) Reset() {}

// Match implements Matcher.
func (g *NGP) Match(busy, idle []bool) []scan.Pair {
	b, i := g.pack(busy, idle)
	return g.MatchBits(b, i, len(busy))
}

// MatchBits implements BitMatcher: both sets are enumerated from processor
// 0 and matched rank to rank.
func (g *NGP) MatchBits(busy, idle scan.Bits, n int) []scan.Pair {
	pairs, _ := g.matchBits(busy, idle, 0)
	return pairs
}

// GP is the paper's global-pointer matching scheme.
type GP struct {
	arena
	pointer int // last processor that donated work; -1 before the first phase
}

// NewGP returns a GP matcher with the pointer parked before processor 0,
// so the first phase enumerates from processor 0 exactly like nGP.
func NewGP() *GP { return &GP{pointer: -1} }

// Name implements Matcher.
func (g *GP) Name() string { return "GP" }

// Reset implements Matcher, parking the pointer again.
func (g *GP) Reset() { g.pointer = -1 }

// Pointer returns the global pointer: the last processor that donated
// work, or -1 while the pointer is parked before the first phase.  It is
// the matcher's only cross-phase state, captured by checkpoints.
func (g *GP) Pointer() int { return g.pointer }

// SetPointer restores the global pointer, the inverse of Pointer.
// Checkpoint restore uses it to resume the donation rotation exactly where
// the snapshotted run left it.
func (g *GP) SetPointer(p int) {
	if p < -1 {
		p = -1
	}
	g.pointer = p
}

// Match implements Matcher.
func (g *GP) Match(busy, idle []bool) []scan.Pair {
	b, i := g.pack(busy, idle)
	return g.MatchBits(b, i, len(busy))
}

// MatchBits implements BitMatcher: busy processors are enumerated starting
// from the first busy processor after the global pointer (wrapping around),
// the idle ones from processor 0, and ranks are matched by rendezvous.  The
// pointer then advances to the last processor that donated.
func (g *GP) MatchBits(busy, idle scan.Bits, n int) []scan.Pair {
	if n == 0 {
		return nil
	}
	start := 0
	if g.pointer >= 0 {
		start = (g.pointer + 1) % n
	}
	pairs, last := g.matchBits(busy, idle, start)
	if last >= 0 {
		g.pointer = last
	}
	return pairs
}
