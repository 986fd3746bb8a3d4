package scan

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bitsOf packs flags into a Bits vector.
func bitsOf(flags []bool) Bits {
	b := NewBits(len(flags))
	for i, f := range flags {
		b.SetTo(i, f)
	}
	return b
}

// enumerate and enumerateFrom run the two enumerations on []bool flags,
// returning fresh rank slices.
func enumerate(flags []bool) (ranks []int, count int) {
	ranks = make([]int, len(flags))
	return ranks, EnumerateBitsInto(ranks, bitsOf(flags), len(flags))
}

func enumerateFrom(flags []bool, start int) (ranks []int, count int) {
	ranks = make([]int, len(flags))
	return ranks, EnumerateBitsFromInto(ranks, bitsOf(flags), start, len(flags))
}

func TestEnumerate(t *testing.T) {
	ranks, count := enumerate([]bool{true, false, true, true, false})
	want := []int{0, -1, 1, 2, -1}
	if count != 3 {
		t.Fatalf("count=%d, want 3", count)
	}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks=%v, want %v", ranks, want)
		}
	}
}

func TestEnumerateFrom(t *testing.T) {
	flags := []bool{true, true, false, true}
	// Start at 2: order of set flags is 3, 0, 1.
	ranks, count := enumerateFrom(flags, 2)
	if count != 3 {
		t.Fatalf("count=%d, want 3", count)
	}
	want := []int{1, 2, -1, 0}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks=%v, want %v", ranks, want)
		}
	}
	// Negative and overflowing starts wrap.
	r2, _ := enumerateFrom(flags, -2) // same as start 2
	for i := range want {
		if r2[i] != want[i] {
			t.Fatalf("negative start: ranks=%v, want %v", r2, want)
		}
	}
	r3, _ := enumerateFrom(flags, 6) // same as start 2
	for i := range want {
		if r3[i] != want[i] {
			t.Fatalf("wrapped start: ranks=%v, want %v", r3, want)
		}
	}
}

// TestEnumerateFromProperties property-checks that the rotated enumeration
// is a bijection from the set flags onto 0..count-1.
func TestEnumerateFromProperties(t *testing.T) {
	f := func(flags []bool, start int) bool {
		ranks, count := enumerateFrom(flags, start)
		seen := map[int]bool{}
		for i, r := range ranks {
			if flags[i] != (r >= 0) {
				return false
			}
			if r >= 0 {
				if r >= count || seen[r] {
					return false
				}
				seen[r] = true
			}
		}
		return len(seen) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRendezvous(t *testing.T) {
	busy := []bool{true, true, false, true, false}
	idle := []bool{false, false, true, false, true}
	busyRanks, _ := enumerate(busy)
	idleRanks, _ := enumerate(idle)
	pairs, _ := RendezvousInto(nil, nil, busyRanks, idleRanks)
	if len(pairs) != 2 {
		t.Fatalf("pairs=%v, want 2 pairs", pairs)
	}
	// busy rank 0 (proc 0) -> idle rank 0 (proc 2); busy rank 1 (proc 1)
	// -> idle rank 1 (proc 4); busy rank 2 (proc 3) unmatched.
	if pairs[0] != (Pair{From: 0, To: 2}) || pairs[1] != (Pair{From: 1, To: 4}) {
		t.Errorf("pairs=%v", pairs)
	}
}

func TestRendezvousPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RendezvousInto(nil, nil, []int{0}, []int{0, 1})
}

// TestRendezvousProperties checks the one-on-one matching invariants on
// random busy/idle configurations: exactly min(|busy|, |idle|) pairs,
// donors distinct, receivers distinct, donors busy, receivers idle.
func TestRendezvousProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(64)
		busy := make([]bool, n)
		idle := make([]bool, n)
		for i := range busy {
			switch rng.Intn(3) {
			case 0:
				busy[i] = true
			case 1:
				idle[i] = true
			}
		}
		busyRanks, nb := enumerate(busy)
		idleRanks, ni := enumerate(idle)
		pairs, _ := RendezvousInto(nil, nil, busyRanks, idleRanks)
		want := nb
		if ni < want {
			want = ni
		}
		if len(pairs) != want {
			t.Fatalf("trial %d: %d pairs, want %d", trial, len(pairs), want)
		}
		froms := map[int]bool{}
		tos := map[int]bool{}
		for _, p := range pairs {
			if !busy[p.From] || !idle[p.To] {
				t.Fatalf("trial %d: invalid pair %v", trial, p)
			}
			if froms[p.From] || tos[p.To] {
				t.Fatalf("trial %d: duplicated endpoint in %v", trial, pairs)
			}
			froms[p.From] = true
			tos[p.To] = true
		}
	}
}
