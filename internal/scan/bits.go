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
