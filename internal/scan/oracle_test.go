package scan

import mbits "math/bits"

// The setup step as it was computed until the matchers learned to read the
// flag words directly (internal/match): two P-long rank arrays, one per
// enumeration, and a rendezvous over them.  Retired from the engine and kept
// here, test-only, as the literal form of the paper's description —
// enumerate both sets, match rank to rank — that the tests of this package
// pin down.

// EnumerateBitsInto ranks the set flags among the first n of b: ranks[i]
// is the number of set flags strictly before i when flag i is set and -1
// otherwise, and the count of set flags is returned.  This is the
// "enumeration" (a sum-scan over the flags) the paper performs on both the
// idle and the busy processor sets during the load-balancing setup step.
// Only the set bits are visited, so a sparse flag vector costs
// O(count + n/64) beyond the O(n) rank reset.
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

// RendezvousInto matches busy processors to idle processors one-on-one
// using the rendezvous allocation scheme described by Hillis: both sets are
// enumerated, and the busy processor with rank r is matched to the idle
// processor with the same rank r.  busyRanks and idleRanks must come from
// EnumerateBitsInto or EnumerateBitsFromInto over the same machine size.
// When the two sets have different sizes only the first min(|busy|, |idle|)
// of each are matched, exactly as in the paper (if I > A, the remaining I-A
// idle processors receive no work).  The matched pairs are appended onto
// pairs and inv is the rank-inversion scratch; both (possibly grown) slices
// are returned so callers can reuse them across phases without allocating.
// Typical use: pairs, inv = RendezvousInto(pairs[:0], inv, busy, idle).
func RendezvousInto(pairs []Pair, inv []int, busyRanks, idleRanks []int) ([]Pair, []int) {
	if len(busyRanks) != len(idleRanks) {
		panic("scan: rank slices of unequal length")
	}
	// Invert the idle enumeration: inv[r] = processor with rank r.
	maxRank := -1
	for _, r := range idleRanks {
		if r > maxRank {
			maxRank = r
		}
	}
	if cap(inv) < maxRank+1 {
		inv = make([]int, maxRank+1)
	}
	inv = inv[:maxRank+1]
	for i, r := range idleRanks {
		if r >= 0 {
			inv[r] = i
		}
	}
	for i, r := range busyRanks {
		if r >= 0 && r <= maxRank {
			pairs = append(pairs, Pair{From: i, To: inv[r]})
		}
	}
	return pairs, inv
}
