package scan

import mbits "math/bits"

// Bits is a flat word-packed flag vector: bit i of the vector lives in
// word i/64 at position i%64.  It is the only representation of the
// busy/idle flags the phase primitives operate on — the one the CM-2 kept
// its context flags in — so reductions over P flags are popcounts over
// P/64 words and enumerations visit only the set bits.  The engine maintains the invariant that bits at or beyond the
// machine size are never set; every reduction below relies on it.
type Bits []uint64

// NewBits returns a zeroed vector able to hold n flags.
func NewBits(n int) Bits {
	//lint:allow hotalloc bit vectors are allocated once by their owner and reused for the whole run
	return make(Bits, (n+63)/64)
}

// Get reports flag i.
func (b Bits) Get(i int) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }

// SetTo sets flag i to v branch-free: the word is masked and the new bit
// OR-ed in, so flag maintenance in the expansion hot path costs a couple
// of ALU operations and no mispredicted branch.
//
//lint:hotpath
func (b Bits) SetTo(i int, v bool) {
	var bit uint64
	if v {
		bit = 1
	}
	w := &b[i>>6]
	sh := uint(i) & 63
	*w = *w&^(1<<sh) | bit<<sh
}

// Clear zeroes every flag.
func (b Bits) Clear() {
	for i := range b {
		b[i] = 0
	}
}

// None reports that no flag is set — the all-stacks-empty termination
// reduction, one load and compare per 64 processors.
func (b Bits) None() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Any reports that at least one flag is set.
func (b Bits) Any() bool { return !b.None() }

// CountBits returns the number of set flags by word popcounts — the
// reduction the trigger check performs every node-expansion cycle to
// obtain the active count A.
func (b Bits) CountBits() int {
	c := 0
	for _, w := range b {
		c += mbits.OnesCount64(w)
	}
	return c
}

// FillBools expands the first len(dst) flags into a []bool, branch-free.
// It bridges the bitset representation to the consumers that take flags
// as []bool (baseline balancers, the distributed-steal driver).
//
//lint:hotpath
func (b Bits) FillBools(dst []bool) {
	for i := range dst {
		dst[i] = b[i>>6]>>(uint(i)&63)&1 != 0
	}
}

// ComplementInto writes the complement of the first n flags of src into
// dst (which must hold n flags), masking the tail of the last word so the
// no-set-bits-beyond-n invariant is preserved.  The engine derives the
// idle (no work) flags from the has-work bitset with it.
//
//lint:hotpath
func ComplementInto(dst, src Bits, n int) {
	words := (n + 63) / 64
	if len(dst) < words || len(src) < words {
		panic("scan: bit vector too short")
	}
	for i := 0; i < words; i++ {
		dst[i] = ^src[i]
	}
	if r := uint(n) & 63; r != 0 {
		dst[words-1] &= 1<<r - 1
	}
}

// EnumerateBitsInto ranks the set flags among the first n of b: ranks[i]
// is the number of set flags strictly before i when flag i is set and -1
// otherwise, and the count of set flags is returned.  This is the
// "enumeration" (a sum-scan over the flags) the paper performs on both the
// idle and the busy processor sets during the load-balancing setup step.
// Only the set bits are visited, so a sparse flag vector costs
// O(count + n/64) beyond the O(n) rank reset.
//
//lint:hotpath
func EnumerateBitsInto(ranks []int, b Bits, n int) (count int) {
	if len(ranks) != n {
		panic("scan: output length mismatch")
	}
	for i := range ranks {
		ranks[i] = -1
	}
	return enumBitRange(ranks, b, 0, n, 0)
}

// EnumerateBitsFromInto is the rotated form underlying the paper's GP
// (global-pointer) matching: enumeration starts at flag start and wraps
// around, so the first set flag at or after start gets rank 0.  Negative
// and overflowing starts are reduced modulo n.
//
//lint:hotpath
func EnumerateBitsFromInto(ranks []int, b Bits, start, n int) (count int) {
	if len(ranks) != n {
		panic("scan: output length mismatch")
	}
	for i := range ranks {
		ranks[i] = -1
	}
	if n == 0 {
		return 0
	}
	start = ((start % n) + n) % n
	count = enumBitRange(ranks, b, start, n, 0)
	count = enumBitRange(ranks, b, 0, start, count)
	return count
}

// enumBitRange assigns consecutive ranks starting at next to the set bits
// of b in [lo, hi), ascending, and returns the next free rank.
func enumBitRange(ranks []int, b Bits, lo, hi, next int) int {
	for wi := lo >> 6; wi < len(b) && wi<<6 < hi; wi++ {
		w := b[wi]
		base := wi << 6
		if base < lo {
			w &= ^uint64(0) << (uint(lo) & 63)
		}
		for w != 0 {
			i := base + mbits.TrailingZeros64(w)
			if i >= hi {
				break
			}
			w &= w - 1
			ranks[i] = next
			next++
		}
	}
	return next
}
