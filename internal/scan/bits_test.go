package scan

import (
	"math/rand"
	"testing"
)

// randomBits builds a Bits vector and the equivalent []bool with density d.
func randomBits(rng *rand.Rand, n int, d float64) (Bits, []bool) {
	b := NewBits(n)
	flags := make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < d {
			b.SetTo(i, true)
			flags[i] = true
		}
	}
	return b, flags
}

// TestBitsSetGet exercises SetTo in both directions across word
// boundaries.
func TestBitsSetGet(t *testing.T) {
	n := 131
	b := NewBits(n)
	for i := 0; i < n; i++ {
		b.SetTo(i, i%3 == 0)
	}
	for i := 0; i < n; i++ {
		if b.Get(i) != (i%3 == 0) {
			t.Fatalf("bit %d = %v", i, b.Get(i))
		}
	}
	// Overwriting set bits must clear them branch-free.
	for i := 0; i < n; i++ {
		b.SetTo(i, i%5 == 0)
	}
	for i := 0; i < n; i++ {
		if b.Get(i) != (i%5 == 0) {
			t.Fatalf("overwrite: bit %d = %v", i, b.Get(i))
		}
	}
}

// TestReductions pins the flag reductions on a fixed vector that straddles
// a word boundary.
func TestReductions(t *testing.T) {
	b := NewBits(70)
	if !b.None() || b.Any() || b.CountBits() != 0 {
		t.Error("zero vector should reduce to none/0")
	}
	b.SetTo(3, true)
	b.SetTo(69, true)
	if b.None() || !b.Any() || b.CountBits() != 2 {
		t.Errorf("two flags set: None=%v Any=%v CountBits=%d", b.None(), b.Any(), b.CountBits())
	}
}

// TestBitsReductionsMatchBools property-checks the word-level reductions
// against a flag-by-flag count at sizes around word boundaries.
func TestBitsReductionsMatchBools(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 63, 64, 65, 128, 200, 1024} {
		for _, d := range []float64{0, 0.01, 0.5, 1} {
			b, flags := randomBits(rng, n, d)
			count := 0
			for _, f := range flags {
				if f {
					count++
				}
			}
			if b.CountBits() != count {
				t.Fatalf("n=%d d=%g: CountBits %d, naive count %d", n, d, b.CountBits(), count)
			}
			if b.None() != (count == 0) || b.Any() != (count > 0) {
				t.Fatalf("n=%d d=%g: None/Any diverge", n, d)
			}
		}
	}
}

// TestComplementInto checks the derived idle flags: complement of the
// first n bits with the tail of the last word masked off, so the
// no-set-bits-beyond-n invariant survives.
func TestComplementInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 63, 64, 65, 130, 256} {
		src, flags := randomBits(rng, n, 0.4)
		dst := NewBits(n)
		ComplementInto(dst, src, n)
		for i := 0; i < n; i++ {
			if dst.Get(i) == flags[i] {
				t.Fatalf("n=%d: complement bit %d wrong", n, i)
			}
		}
		// The tail of the last word must stay zero.
		if r := uint(n) & 63; r != 0 {
			if dst[len(dst)-1]>>r != 0 {
				t.Fatalf("n=%d: set bits beyond n", n)
			}
		}
		if dst.CountBits() != n-src.CountBits() {
			t.Fatalf("n=%d: complement popcount %d, want %d", n, dst.CountBits(), n-src.CountBits())
		}
	}
}

// naiveRanks is the definition of flag enumeration, written as the loop it
// is: walk the n flags once starting at start (wrapping), handing each set
// flag the next rank and every clear flag -1.
func naiveRanks(flags []bool, start int) (ranks []int, count int) {
	n := len(flags)
	ranks = make([]int, n)
	for k := 0; k < n; k++ {
		i := (start + k) % n
		ranks[i] = -1
		if flags[i] {
			ranks[i] = count
			count++
		}
	}
	return ranks, count
}

// TestEnumerateBitsMatchesBool property-checks both bitset enumerations
// against the naive flag-by-flag loop — identical ranks, identical counts,
// including the rotated start of the GP matcher.
func TestEnumerateBitsMatchesBool(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		b, flags := randomBits(rng, n, []float64{0.02, 0.3, 0.9}[rng.Intn(3)])

		gotRanks := make([]int, n)
		gotC := EnumerateBitsInto(gotRanks, b, n)
		wantRanks, wantC := naiveRanks(flags, 0)
		if gotC != wantC {
			t.Fatalf("n=%d: count %d, want %d", n, gotC, wantC)
		}
		for i := range wantRanks {
			if gotRanks[i] != wantRanks[i] {
				t.Fatalf("n=%d: rank[%d] = %d, want %d", n, i, gotRanks[i], wantRanks[i])
			}
		}

		start := rng.Intn(2*n) - n // exercise negative and >= n starts
		gotC = EnumerateBitsFromInto(gotRanks, b, start, n)
		wantRanks, wantC = naiveRanks(flags, ((start%n)+n)%n)
		if gotC != wantC {
			t.Fatalf("n=%d start=%d: count %d, want %d", n, start, gotC, wantC)
		}
		for i := range wantRanks {
			if gotRanks[i] != wantRanks[i] {
				t.Fatalf("n=%d start=%d: rank[%d] = %d, want %d", n, start, i, gotRanks[i], wantRanks[i])
			}
		}
	}
}

// TestEnumerateBitsZeroAlloc pins the hot-path contract: enumeration into
// caller storage allocates nothing.
func TestEnumerateBitsZeroAlloc(t *testing.T) {
	n := 512
	b := NewBits(n)
	for i := 0; i < n; i += 7 {
		b.SetTo(i, true)
	}
	ranks := make([]int, n)
	allocs := testing.AllocsPerRun(100, func() {
		EnumerateBitsInto(ranks, b, n)
		EnumerateBitsFromInto(ranks, b, 137, n)
	})
	if allocs > 0 {
		t.Errorf("bitset enumeration allocates %.1f times", allocs)
	}
}
