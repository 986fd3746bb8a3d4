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

import "simdtree/internal/scan"

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

// arena is the reusable matching scratch shared by both schemes: the busy
// and idle enumeration ranks, the rendezvous rank-inversion table, the
// returned pair slice, and the bit vectors Match packs its []bool
// arguments into.  None of it is semantic state — Reset does not touch
// it — it only keeps steady-state matching allocation-free.
type arena struct {
	busyRanks []int
	idleRanks []int
	inv       []int
	pairs     []scan.Pair
	busyBits  scan.Bits
	idleBits  scan.Bits
}

// grow sizes the rank scratch for an n-processor machine.
//
//lint:hotpath
func (a *arena) grow(n int) {
	if cap(a.busyRanks) < n {
		//lint:allow hotalloc rank scratch grows once to P and is reused across phases
		a.busyRanks = make([]int, n)
		//lint:allow hotalloc rank scratch grows once to P and is reused across phases
		a.idleRanks = make([]int, n)
	}
	a.busyRanks = a.busyRanks[:n]
	a.idleRanks = a.idleRanks[:n]
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
// and resliced after that; no bit at or beyond len(flags) is left set.
func packBools(dst scan.Bits, flags []bool) scan.Bits {
	words := (len(flags) + 63) / 64
	if cap(dst) < words {
		dst = scan.NewBits(len(flags))
	}
	dst = dst[:words]
	dst.Clear()
	for i, f := range flags {
		if f {
			dst.SetTo(i, true)
		}
	}
	return dst
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
//
//lint:hotpath
func (g *NGP) Match(busy, idle []bool) []scan.Pair {
	b, i := g.pack(busy, idle)
	return g.MatchBits(b, i, len(busy))
}

// MatchBits implements BitMatcher: both sets are enumerated from processor
// 0 and matched rank to rank.
//
//lint:hotpath
func (g *NGP) MatchBits(busy, idle scan.Bits, n int) []scan.Pair {
	g.grow(n)
	scan.EnumerateBitsInto(g.busyRanks, busy, n)
	scan.EnumerateBitsInto(g.idleRanks, idle, n)
	g.pairs, g.inv = scan.RendezvousInto(g.pairs[:0], g.inv, g.busyRanks, g.idleRanks)
	return g.pairs
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
//
//lint:hotpath
func (g *GP) Match(busy, idle []bool) []scan.Pair {
	b, i := g.pack(busy, idle)
	return g.MatchBits(b, i, len(busy))
}

// MatchBits implements BitMatcher: busy processors are enumerated starting
// from the first busy processor after the global pointer (wrapping around),
// the idle ones from processor 0, and ranks are matched by rendezvous.  The
// pointer then advances to the last processor that donated.
//
//lint:hotpath
func (g *GP) MatchBits(busy, idle scan.Bits, n int) []scan.Pair {
	if n == 0 {
		return nil
	}
	start := (g.pointer + 1) % n
	if g.pointer < 0 {
		start = 0
	}
	g.grow(n)
	nBusy := scan.EnumerateBitsFromInto(g.busyRanks, busy, start, n)
	nIdle := scan.EnumerateBitsInto(g.idleRanks, idle, n)
	g.pairs, g.inv = scan.RendezvousInto(g.pairs[:0], g.inv, g.busyRanks, g.idleRanks)
	// Advance the pointer to the donor with the highest matched rank.
	matched := nBusy
	if nIdle < matched {
		matched = nIdle
	}
	if matched > 0 {
		last := matched - 1
		for i, r := range g.busyRanks {
			if r == last {
				g.pointer = i
				break
			}
		}
	}
	return g.pairs
}
