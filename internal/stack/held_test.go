package stack

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"simdtree/internal/scan"
)

// countHeld is Arena.Held's reference: one PE at a time, by Size.
func countHeld[S any](a *Arena[S]) (h [MaxBatch + 1]int32) {
	for pe := 0; pe < a.P(); pe++ {
		h[min(a.Size(pe), MaxBatch)]++
	}
	return h
}

// appendRandom appends levels of n nodes in all above PE pe's top.
func appendRandom(a *Arena[int], rng *rand.Rand, pe, n int) {
	var counts []int
	for left := n; left > 0; {
		c := 1 + rng.IntN(min(left, 5))
		counts = append(counts, c)
		left -= c
	}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = rng.Int()
	}
	a.AppendLevels(pe, nodes, counts)
}

// TestArenaHeld: the histogram Held reads off the arena counts every PE by
// Size, ghost nodes included and MaxBatch or more in the last bucket, on
// machines of one, less than, exactly and more than one flag word and of
// several, through installs, evictions, split rounds, clears and copies.
func TestArenaHeld(t *testing.T) {
	for _, p := range []int{1, 63, 64, 65, 200, 4096} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(p), 48))
			a := NewArena[int](p)
			var ghosts, full int
			check := func(when string) {
				t.Helper()
				var got [MaxBatch + 1]int32
				got[3] = 99 // Held overwrites what it is handed
				a.Held(&got)
				if want := countHeld(a); got != want {
					t.Fatalf("%s: Held %v, per-PE count %v", when, got, want)
				}
			}
			check("a fresh arena")

			for pe := 0; pe < p; pe++ {
				if rng.IntN(5) == 0 {
					continue
				}
				n := 1 + rng.IntN(2*MaxBatch)
				if n >= MaxBatch {
					full++
				}
				appendRandom(a, rng, pe, n)
			}
			check("after AppendLevels")

			type evicted struct {
				pe            int
				nodes, counts []int
			}
			var saved []evicted
			for pe := 0; pe < p; pe += 3 {
				if rd := a.ResidentDepth(pe); rd >= 2 {
					e := evicted{pe: pe}
					a.ForEachBottomLevel(pe, rd-1, func(level []int) {
						e.nodes = append(e.nodes, level...)
						e.counts = append(e.counts, len(level))
					})
					a.DropBottom(pe, rd-1)
					saved = append(saved, e)
					ghosts++
				}
			}
			check("with evicted levels")
			for _, e := range saved {
				a.PrependLevels(e.pe, e.nodes, e.counts)
			}
			check("after the evicted levels were restored")

			splitters := []Splitter[int]{BottomNode[int]{}, TopNode[int]{}, HalfStack[int]{}}
			for round := 0; round < 6; round++ {
				var pairs []scan.Pair
				var donors []int
				for pe := 0; pe < p; pe++ {
					if a.Splittable(pe) && rng.IntN(2) == 0 {
						donors = append(donors, pe)
					}
				}
				for pe := 0; pe < p && len(pairs) < len(donors); pe++ {
					if a.Empty(pe) {
						pairs = append(pairs, scan.Pair{From: donors[len(pairs)], To: pe})
					}
				}
				moved := make([]int, len(pairs))
				splitters[round%len(splitters)].SplitBlock(a, pairs, moved, nil)
				for _, pr := range pairs {
					a.SyncBits(pr.From)
					a.SyncBits(pr.To)
				}
				check(fmt.Sprintf("after split round %d (%d pairs)", round, len(pairs)))
				for i := 0; i < p/4+1; i++ {
					a.Clear(rng.IntN(p))
				}
				check(fmt.Sprintf("after the clears of round %d", round))
			}

			src := NewArena[int](p)
			for pe := 0; pe < p; pe += 2 {
				appendRandom(src, rng, pe, 1+rng.IntN(MaxBatch+3))
			}
			for i := 0; i < p; i++ {
				a.CopyPE(rng.IntN(p), src, rng.IntN(p))
			}
			check("after CopyPE")

			if p >= 63 && (ghosts == 0 || full == 0) {
				t.Fatalf("the arena never held evicted nodes (%d PEs) or a stack of MaxBatch nodes (%d PEs)", ghosts, full)
			}
		})
	}
}
