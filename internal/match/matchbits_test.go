package match

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"simdtree/internal/scan"
)

// rankMatch is the setup step as the matchers computed it before they read
// the flag words directly: a P-long rank array per enumeration (-1 where the
// flag is clear), the idle one inverted, and the busy one rescanned in
// processor order.  Beside naiveMatch it is the second, independent oracle:
// this one fixes the pair order by construction (a scan over processors),
// naiveMatch fixes which processors pair up.
func rankMatch(busy, idle []bool, start int) (pairs []scan.Pair, lastDonor int) {
	n := len(busy)
	busyRanks, idleRanks := make([]int, n), make([]int, n)
	nBusy, nIdle := 0, 0
	for k := 0; k < n; k++ {
		busyRanks[k], idleRanks[k] = -1, -1
	}
	for k := 0; k < n; k++ {
		if i := (start + k) % n; busy[i] {
			busyRanks[i] = nBusy
			nBusy++
		}
		if idle[k] {
			idleRanks[k] = nIdle
			nIdle++
		}
	}
	inv := make([]int, nIdle)
	for i, r := range idleRanks {
		if r >= 0 {
			inv[r] = i
		}
	}
	lastDonor = -1
	for i, r := range busyRanks {
		if r >= 0 && r < nIdle {
			pairs = append(pairs, scan.Pair{From: i, To: inv[r]})
			if r == min(nBusy, nIdle)-1 {
				lastDonor = i
			}
		}
	}
	return pairs, lastDonor
}

func packed(flags []bool) scan.Bits {
	b := scan.NewBits(len(flags))
	for i, f := range flags {
		b.SetTo(i, f)
	}
	return b
}

// checkRound runs one matching round of both schemes, through MatchBits and
// through Match, from the given global pointer (-1: parked) and holds each
// against both oracles: the pairs in their order, one-on-one, and where the
// pointer lands.
func checkRound(t *testing.T, busy, idle []bool, pointer int) {
	t.Helper()
	n := len(busy)
	busyB, idleB := packed(busy), packed(idle)
	for _, gp := range []bool{false, true} {
		start := 0
		if gp && pointer >= 0 {
			start = (pointer + 1) % n
		}
		want, last := naiveMatch(busy, idle, start)
		if byRank, lastByRank := rankMatch(busy, idle, start); !slices.Equal(byRank, want) || lastByRank != last {
			t.Fatalf("n=%d start=%d: the oracles disagree: ranks %v (last %d), naive %v (last %d)", n, start, byRank, lastByRank, want, last)
		}
		for _, bits := range []bool{true, false} {
			var m BitMatcher = &NGP{}
			g := NewGP()
			g.SetPointer(pointer)
			if gp {
				m = g
			}
			var got []scan.Pair
			if bits {
				got = m.MatchBits(busyB, idleB, n)
			} else {
				got = m.Match(busy, idle)
			}
			name := fmt.Sprintf("n=%d pointer=%d %s bits=%v", n, pointer, m.Name(), bits)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: pairs %v, want %v", name, got, want)
			}
			fromSeen, toSeen := map[int]bool{}, map[int]bool{}
			for _, p := range got {
				if !busy[p.From] || !idle[p.To] || fromSeen[p.From] || toSeen[p.To] {
					t.Fatalf("%s: pair %v is not busy -> idle, one-on-one, in %v", name, p, got)
				}
				fromSeen[p.From], toSeen[p.To] = true, true
			}
			wantPtr := pointer // no pair: the pointer stays where it was
			if last >= 0 {
				wantPtr = last
			}
			if gp && g.Pointer() != wantPtr {
				t.Fatalf("%s: pointer landed on %d, want %d", name, g.Pointer(), wantPtr)
			}
		}
	}
}

// TestMatchBitsProperties sweeps the shapes a round can have: machine sizes
// around the word boundary and one that is many words and a ragged tail;
// every class of starting point — pointer parked, on PE 0, mid-word, on the
// last PE (the enumeration wraps at once), and beyond the machine, as a
// checkpoint from a larger run could SetPointer it; and every balance of the
// two sets, including the rounds that match nothing.
func TestMatchBitsProperties(t *testing.T) {
	kinds := []struct {
		name        string
		busy, idle  float64 // share of PEs flagged, when not equal
		equalCounts bool
	}{
		{name: "fewer-busy", busy: 0.2, idle: 0.6},
		{name: "equal", equalCounts: true},
		{name: "more-busy", busy: 0.6, idle: 0.2},
		{name: "all-busy", busy: 1},
		{name: "none-idle", busy: 0.5},
		{name: "none-busy", idle: 0.5},
	}
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 63, 64, 65, 4113} {
		for _, pointer := range []int{-1, 0, 37 % n, n - 1, n + 5} {
			for _, k := range kinds {
				for trial := 0; trial < 4; trial++ {
					busy, idle := make([]bool, n), make([]bool, n)
					if k.equalCounts {
						perm, half := rng.Perm(n), rng.Intn(n/2+1)
						for _, i := range perm[:half] {
							busy[i] = true
						}
						for _, i := range perm[half : 2*half] {
							idle[i] = true
						}
					} else {
						for i := range busy {
							switch x := rng.Float64(); {
							case x < k.busy:
								busy[i] = true
							case x < k.busy+k.idle:
								idle[i] = true
							}
						}
					}
					checkRound(t, busy, idle, pointer)
				}
			}
		}
	}
}

// FuzzMatchBits lets the fuzzer pick the machine size, the pointer and the
// flags (two bits a PE, cycling through data: busy, idle, or neither).
func FuzzMatchBits(f *testing.F) {
	f.Add(uint16(8), int32(4), []byte{0x00, 0x14, 0x00})
	f.Add(uint16(64), int32(63), []byte{0x55, 0x00, 0xaa})
	f.Add(uint16(65), int32(-1), []byte{0x10})
	f.Add(uint16(4113), int32(5000), []byte{0x01, 0x00, 0x00, 0x40, 0x11})
	f.Fuzz(func(t *testing.T, size uint16, pointer int32, data []byte) {
		n := 1 + int(size)%4200
		busy, idle := make([]bool, n), make([]bool, n)
		for i := 0; i < n && len(data) > 0; i++ {
			switch data[i/4%len(data)] >> (uint(i) % 4 * 2) & 3 {
			case 0:
				busy[i] = true
			case 1:
				idle[i] = true
			}
		}
		checkRound(t, busy, idle, max(int(pointer), -1))
	})
}

// TestMatchBitsZeroAlloc pins the cost contract of the setup step for both
// schemes: the scratch of a round is two ints a matched pair (and the pairs
// themselves), nothing P-long, and once it has grown to the largest round a
// phase allocates nothing, wherever the pointer has rotated to.
func TestMatchBitsZeroAlloc(t *testing.T) {
	const n = 4113
	rng := rand.New(rand.NewSource(5))
	busy, idle := make([]bool, n), make([]bool, n)
	matched := 0
	for i := range busy {
		busy[i] = rng.Intn(8) != 0
		idle[i] = !busy[i]
		if idle[i] {
			matched++
		}
	}
	busyB, idleB := packed(busy), packed(idle)
	gp, ngp := NewGP(), &NGP{}
	for _, tc := range []struct {
		m BitMatcher
		a *arena
	}{{ngp, &ngp.arena}, {gp, &gp.arena}} {
		if got := len(tc.m.MatchBits(busyB, idleB, n)); got != matched {
			t.Fatalf("%s: %d pairs, want %d", tc.m.Name(), got, matched)
		}
		if cap(tc.a.ranks) > 2*matched || cap(tc.a.pairs) > matched {
			t.Errorf("%s: a %d-pair round left %d ints of rank scratch and room for %d pairs; want at most %d and %d",
				tc.m.Name(), matched, cap(tc.a.ranks), cap(tc.a.pairs), 2*matched, matched)
		}
		if allocs := testing.AllocsPerRun(100, func() { tc.m.MatchBits(busyB, idleB, n) }); allocs != 0 {
			t.Errorf("%s: MatchBits allocates %.1f times per phase in steady state", tc.m.Name(), allocs)
		}
	}
	if gp.Pointer() < 0 {
		t.Error("GP pointer never moved")
	}
}
