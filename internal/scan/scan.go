// Package scan holds the primitives the paper's load-balancing setup step
// is built from (Blelloch, "Scans as Primitive Parallel Operations", 1989):
// the flag vectors, their reductions, and the Pair a rendezvous — Hillis's
// allocation scheme, matching the idle processor of rank r with the busy
// one of rank r — produces.
//
// Flags are word-packed (Bits, bits.go), the representation the CM-2 kept
// its context flags in: reductions are popcounts over P/64 words.  The
// enumerations and the rendezvous themselves are internal/match's, which
// reads ranks straight off the flag words; the rank-array form of both is
// kept test-only (oracle_test.go).
package scan

// Pair records that donor busy processor From sends work to idle processor
// To during a load-balancing phase.
type Pair struct {
	From int // donor (busy) processor id
	To   int // receiver (idle) processor id
}
