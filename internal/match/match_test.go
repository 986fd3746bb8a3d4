package match

import (
	"math/rand"
	"testing"

	"simdtree/internal/scan"
)

// figure2State is the paper's Figure 2 example: 8 processors, 6 and 7
// idle (1-indexed in the paper; 5 and 6 zero-indexed here), global pointer
// at processor 5 (paper) = index 4.
func figure2State() (busy, idle []bool) {
	busy = []bool{true, true, true, true, true, false, false, true}
	idle = []bool{false, false, false, false, false, true, true, false}
	return
}

// TestFigure2NGP reproduces the nGP half of the paper's Figure 2: idle
// processors 6 and 7 are matched to busy processors 1 and 2 (paper
// numbering), and the matching repeats identically next phase.
func TestFigure2NGP(t *testing.T) {
	busy, idle := figure2State()
	m := &NGP{}
	for round := 0; round < 2; round++ {
		pairs := m.Match(busy, idle)
		want := []scan.Pair{{From: 0, To: 5}, {From: 1, To: 6}}
		if len(pairs) != 2 || pairs[0] != want[0] || pairs[1] != want[1] {
			t.Fatalf("round %d: pairs %v, want %v", round, pairs, want)
		}
	}
}

// TestFigure2GP reproduces the GP half of Figure 2: with the pointer at
// processor 5 (index 4), idle 6,7 are matched to busy 8,1 (indices 7,0);
// the pointer advances, so the next identical state matches 6,7 to 2,3
// (indices 1,2).
func TestFigure2GP(t *testing.T) {
	busy, idle := figure2State()
	g := NewGP()
	g.pointer = 4 // paper: global pointer at processor 5

	pairs := g.Match(busy, idle)
	want := []scan.Pair{{From: 7, To: 5}, {From: 0, To: 6}}
	if len(pairs) != 2 {
		t.Fatalf("pairs %v, want 2", pairs)
	}
	got := map[scan.Pair]bool{}
	for _, p := range pairs {
		got[p] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Fatalf("first phase pairs %v, want to contain %v", pairs, want)
		}
	}
	if g.pointer != 0 {
		t.Fatalf("pointer = %d, want 0 (paper: advanced to processor 1)", g.pointer)
	}

	pairs = g.Match(busy, idle)
	want = []scan.Pair{{From: 1, To: 5}, {From: 2, To: 6}}
	got = map[scan.Pair]bool{}
	for _, p := range pairs {
		got[p] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Fatalf("second phase pairs %v, want to contain %v", pairs, want)
		}
	}
	if g.pointer != 2 {
		t.Fatalf("pointer = %d, want 2 (paper: processor 3)", g.pointer)
	}
}

func TestGPFirstPhaseMatchesNGP(t *testing.T) {
	busy, idle := figure2State()
	g := NewGP()
	n := &NGP{}
	gp := g.Match(busy, idle)
	ng := n.Match(busy, idle)
	if len(gp) != len(ng) {
		t.Fatalf("fresh GP %v vs nGP %v", gp, ng)
	}
	for i := range gp {
		if gp[i] != ng[i] {
			t.Fatalf("fresh GP %v differs from nGP %v", gp, ng)
		}
	}
}

func TestReset(t *testing.T) {
	g := NewGP()
	g.pointer = 3
	g.Reset()
	if g.pointer != -1 {
		t.Errorf("Reset left pointer at %d", g.pointer)
	}
}

// TestMatchersOneOnOne property-checks both matchers on random states:
// min(|busy|,|idle|) pairs, donors busy, receivers idle, no endpoint used
// twice.
func TestMatchersOneOnOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewGP()
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		busy := make([]bool, n)
		idle := make([]bool, n)
		nb, ni := 0, 0
		for i := range busy {
			switch rng.Intn(3) {
			case 0:
				busy[i] = true
				nb++
			case 1:
				idle[i] = true
				ni++
			}
		}
		for _, m := range []Matcher{&NGP{}, g} {
			pairs := m.Match(busy, idle)
			want := nb
			if ni < want {
				want = ni
			}
			if len(pairs) != want {
				t.Fatalf("%s trial %d: %d pairs, want %d", m.Name(), trial, len(pairs), want)
			}
			seenF, seenT := map[int]bool{}, map[int]bool{}
			for _, p := range pairs {
				if !busy[p.From] || !idle[p.To] || seenF[p.From] || seenT[p.To] {
					t.Fatalf("%s trial %d: bad pair %v in %v", m.Name(), trial, p, pairs)
				}
				seenF[p.From] = true
				seenT[p.To] = true
			}
		}
	}
}

// TestGPRotatesBurden verifies the motivation of Section 2.2: with a
// stable busy set and few idle processors, GP cycles through all donors
// while nGP hammers the same ones.
func TestGPRotatesBurden(t *testing.T) {
	const p = 16
	busy := make([]bool, p)
	idle := make([]bool, p)
	for i := range busy {
		busy[i] = true
	}
	busy[p-1] = false
	idle[p-1] = true

	donationsGP := map[int]int{}
	donationsNGP := map[int]int{}
	g := NewGP()
	n := &NGP{}
	for phase := 0; phase < p-1; phase++ {
		for _, pr := range g.Match(busy, idle) {
			donationsGP[pr.From]++
		}
		for _, pr := range n.Match(busy, idle) {
			donationsNGP[pr.From]++
		}
	}
	if len(donationsGP) != p-1 {
		t.Errorf("GP used %d distinct donors over %d phases, want %d", len(donationsGP), p-1, p-1)
	}
	if len(donationsNGP) != 1 {
		t.Errorf("nGP used %d distinct donors, want 1 (always the first)", len(donationsNGP))
	}
}

// TestGPWrapsAround checks pointer wrap-around past the last processor.
func TestGPWrapsAround(t *testing.T) {
	busy := []bool{true, false, true}
	idle := []bool{false, true, false}
	g := NewGP()
	g.pointer = 2 // last processor: enumeration restarts from 0
	pairs := g.Match(busy, idle)
	if len(pairs) != 1 || pairs[0] != (scan.Pair{From: 0, To: 1}) {
		t.Errorf("pairs %v, want [{0 1}]", pairs)
	}
}

func TestEmptyMachine(t *testing.T) {
	g := NewGP()
	if pairs := g.Match(nil, nil); pairs != nil {
		t.Errorf("empty machine produced pairs %v", pairs)
	}
	n := &NGP{}
	if pairs := n.Match([]bool{false}, []bool{false}); len(pairs) != 0 {
		t.Errorf("no busy/idle processors produced pairs %v", pairs)
	}
}

// naiveMatch is the paper's matching step written out flag by flag: list
// the busy processors in enumeration order starting at start (wrapping),
// list the idle ones from processor 0, and pair them rank to rank.  It
// returns the pairs in donor-index order, as the matchers do, and the last
// donor matched (-1 if none) — where GP's pointer must land.
func naiveMatch(busy, idle []bool, start int) (pairs []scan.Pair, lastDonor int) {
	n := len(busy)
	var donors, receivers []int
	for k := 0; k < n; k++ {
		if i := (start + k) % n; busy[i] {
			donors = append(donors, i)
		}
		if idle[k] {
			receivers = append(receivers, k)
		}
	}
	matched := min(len(donors), len(receivers))
	to := map[int]int{}
	for r := 0; r < matched; r++ {
		to[donors[r]] = receivers[r]
	}
	for i := 0; i < n; i++ {
		if t, ok := to[i]; ok {
			pairs = append(pairs, scan.Pair{From: i, To: t})
		}
	}
	if matched == 0 {
		return nil, -1
	}
	return pairs, donors[matched-1]
}

// TestMatchAgainstNaiveReference drives both matchers, through both entry
// points, over random flag vectors whose size changes from phase to phase,
// and checks every phase against naiveMatch — pairs, pair order and the GP
// pointer.  Match and MatchBits run on separate matcher instances so each
// carries its own pointer through the same sequence.
func TestMatchAgainstNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	gpBool, gpBits := NewGP(), NewGP()
	ngpBool, ngpBits := &NGP{}, &NGP{}
	pointer := -1
	for phase := 0; phase < 2000; phase++ {
		n := 1 + rng.Intn(200)
		busy, idle := make([]bool, n), make([]bool, n)
		busyB, idleB := scan.NewBits(n), scan.NewBits(n)
		density := []float64{0.05, 0.4, 0.9}[rng.Intn(3)]
		for i := 0; i < n; i++ {
			if rng.Float64() < density {
				busy[i] = true
				busyB.SetTo(i, true)
			} else if rng.Intn(2) == 0 {
				idle[i] = true
				idleB.SetTo(i, true)
			}
		}
		start := 0
		if pointer >= 0 {
			start = (pointer + 1) % n
		}
		wantGP, last := naiveMatch(busy, idle, start)
		if last >= 0 {
			pointer = last
		}
		wantNGP, _ := naiveMatch(busy, idle, 0)

		check := func(name string, got, want []scan.Pair) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("phase %d n=%d %s: %d pairs %v, want %v", phase, n, name, len(got), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("phase %d n=%d %s: pairs %v, want %v", phase, n, name, got, want)
				}
			}
		}
		check("GP.Match", gpBool.Match(busy, idle), wantGP)
		check("GP.MatchBits", gpBits.MatchBits(busyB, idleB, n), wantGP)
		check("nGP.Match", ngpBool.Match(busy, idle), wantNGP)
		check("nGP.MatchBits", ngpBits.MatchBits(busyB, idleB, n), wantNGP)
		if gpBool.Pointer() != pointer || gpBits.Pointer() != pointer {
			t.Fatalf("phase %d n=%d: GP pointer Match=%d MatchBits=%d, want %d", phase, n, gpBool.Pointer(), gpBits.Pointer(), pointer)
		}
	}
}

// TestMatchBoolScratchZeroAlloc pins that Match reuses its packing
// scratch: once a matcher has seen its largest machine, matching on []bool
// flags allocates nothing — including when the machine shrinks and then
// grows back.
func TestMatchBoolScratchZeroAlloc(t *testing.T) {
	flags := func(n int) (busy, idle []bool) {
		busy, idle = make([]bool, n), make([]bool, n)
		for i := range busy {
			busy[i] = i%3 == 0
			idle[i] = i%3 == 1
		}
		return busy, idle
	}
	bigB, bigI := flags(1000)
	smallB, smallI := flags(70)
	for _, m := range []Matcher{NewGP(), &NGP{}} {
		m.Match(bigB, bigI) // warm up to the largest size
		allocs := testing.AllocsPerRun(100, func() {
			m.Match(smallB, smallI)
			m.Match(bigB, bigI)
		})
		if allocs > 0 {
			t.Errorf("%s: Match allocates %.1f times per shrink/grow cycle in steady state", m.Name(), allocs)
		}
		// A shrunken machine must not see flags left over from the larger one.
		if pairs := m.Match(smallB, smallI); len(pairs) != 23 {
			t.Errorf("%s: %d pairs on the 70-PE machine, want 23", m.Name(), len(pairs))
		}
	}
}
