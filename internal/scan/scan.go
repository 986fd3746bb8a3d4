// Package scan implements the primitives the paper's load-balancing setup
// step is built from (Blelloch, "Scans as Primitive Parallel Operations",
// 1989): flag vectors, their reductions, flag enumeration — the sum-scan
// that ranks the set positions of a flag vector — and the rendezvous
// allocation scheme of Hillis used to match idle processors with busy
// ones.
//
// Flags are word-packed (Bits, bits.go), the representation the CM-2 kept
// its context flags in: reductions are popcounts over P/64 words and the
// enumerations visit only the set bits.  This file holds the rendezvous
// step that pairs two enumerations rank to rank.
package scan

// Pair records that donor busy processor From sends work to idle processor
// To during a load-balancing phase.
type Pair struct {
	From int // donor (busy) processor id
	To   int // receiver (idle) processor id
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
//
//lint:hotpath
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
		//lint:allow hotalloc rank-inversion scratch grows once and is reused through the caller's arena
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
			//lint:allow hotalloc pairs append is amortised by the caller's reused arena slice
			pairs = append(pairs, Pair{From: i, To: inv[r]})
		}
	}
	return pairs, inv
}
