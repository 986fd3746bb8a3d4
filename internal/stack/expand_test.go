package stack

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"simdtree/internal/synthetic"
)

// fanDomain is a pure tree over ints with fan-out 0..9: a node carries its
// depth in the low byte and a hash above it.  Leaves (fan-out 0, or the
// depth limit) drain levels, the wide nodes grow the per-PE buffers.
type fanDomain struct{ maxDepth int }

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

func (fanDomain) Goal(s int) bool { return s%7 == 0 }

func (d fanDomain) Expand(s int, buf []int) []int {
	depth := s & 0xff
	if depth >= d.maxDepth {
		return buf
	}
	h := mix(uint64(s))
	for i, n := 0, int(h%10); i < n; i++ {
		buf = append(buf, int(mix(h+uint64(i))>>24)<<8|(depth+1))
	}
	return buf
}

// naiveCycle is the reference the kernel replaced: one PE at a time through
// the exported mutators, each of which re-syncs the PE's two flag bits.
func naiveCycle[S any](a *Arena[S], d Expander[S], buf []S) (Expansion, []S) {
	res := Expansion{NotResident: -1}
	for pe := 0; pe < a.P(); pe++ {
		node, ok := a.Pop(pe)
		if !ok {
			continue
		}
		res.Expanded++
		if d.Goal(node) {
			res.Goals++
		}
		buf = d.Expand(node, buf[:0])
		a.PushLevel(pe, buf)
		if s := a.Size(pe); s > res.Peak {
			res.Peak = s
		}
	}
	return res, buf
}

// wordShards cuts [0, p) the way simd.makeShards does: at most workers
// chunks, each a whole number of 64-PE flag words.
func wordShards(p, workers int) [][2]int {
	chunk := ((p+workers-1)/workers + 63) &^ 63
	var out [][2]int
	for lo := 0; lo < p; lo += chunk {
		hi := lo + chunk
		if hi > p {
			hi = p
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// kernelCycle runs ExpandCycle over the shards, concurrently when there is
// more than one (which is what the race detector checks the whole-word flag
// stores against), and reduces them in shard order.
func kernelCycle[S any](a *Arena[S], d Expander[S], shards [][2]int, scratch []*ExpandScratch[S]) Expansion {
	parts := make([]Expansion, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, lo, hi int) {
			defer wg.Done()
			parts[i] = oneCycle(a, d, lo, hi, scratch[i])
		}(i, sh[0], sh[1])
	}
	wg.Wait()
	res := Expansion{NotResident: -1}
	for _, r := range parts {
		res.Merge(r)
	}
	return res
}

// sameArenas fails unless the twins agree on everything the schedule and
// the serialisers can observe.
func sameArenas[S comparable](t *testing.T, k, n *Arena[S], when string) {
	t.Helper()
	var kl, nl []S
	var kc, nc []int
	for pe := 0; pe < k.P(); pe++ {
		if k.Size(pe) != n.Size(pe) || k.Depth(pe) != n.Depth(pe) ||
			k.Resident(pe) != n.Resident(pe) || k.Ghost(pe) != n.Ghost(pe) {
			t.Fatalf("%s: PE %d size/depth/resident/ghost %d/%d/%d/%d, naive %d/%d/%d/%d", when, pe,
				k.Size(pe), k.Depth(pe), k.Resident(pe), k.Ghost(pe),
				n.Size(pe), n.Depth(pe), n.Resident(pe), n.Ghost(pe))
		}
		kl, nl, kc, nc = kl[:0], nl[:0], kc[:0], nc[:0]
		k.ForEachLevel(pe, func(lv []S) { kl, kc = append(kl, lv...), append(kc, len(lv)) })
		n.ForEachLevel(pe, func(lv []S) { nl, nc = append(nl, lv...), append(nc, len(lv)) })
		if !slices.Equal(kc, nc) || !slices.Equal(kl, nl) {
			t.Fatalf("%s: PE %d levels %v of %v, naive %v of %v", when, pe, kc, kl, nc, nl)
		}
	}
	for wi := range k.WorkBits() {
		if k.WorkBits()[wi] != n.WorkBits()[wi] || k.SplitBits()[wi] != n.SplitBits()[wi] {
			t.Fatalf("%s: flag word %d work/split %#x/%#x, naive %#x/%#x", when, wi,
				k.WorkBits()[wi], k.SplitBits()[wi], n.WorkBits()[wi], n.SplitBits()[wi])
		}
	}
}

// twinRun drives two arenas from the same start, one by the kernel over
// shards and one by naiveCycle, and compares them after every cycle.
// Between cycles both get the same bottom-node donations (which advance
// the donors' windows, so later pushes slide them) and, with ghosts on, the
// same evictions; an emulated Barrier restores a PE whose resident window
// emptied before the next cycle.
func twinRun[S comparable](t *testing.T, d Expander[S], root func(pe int) S, p int, shards [][2]int, cycles int, ghosts bool) {
	t.Helper()
	k, n := NewArena[S](p), NewArena[S](p)
	for pe := 0; pe < p; pe++ {
		if pe%3 != 1 {
			k.PushLevel(pe, []S{root(pe)})
			n.PushLevel(pe, []S{root(pe)})
		}
	}
	scratch := make([]*ExpandScratch[S], len(shards))
	for i := range scratch {
		scratch[i] = new(ExpandScratch[S])
	}
	segs := make([][]evicted[S], p) // per-PE LIFO of evictions
	var buf []S
	for c := 0; c < cycles && !k.NoWork(); c++ {
		for pe := 0; pe < p; pe++ {
			if k.Resident(pe) == 0 && k.Ghost(pe) > 0 {
				seg := segs[pe][len(segs[pe])-1]
				segs[pe] = segs[pe][:len(segs[pe])-1]
				k.PrependLevels(pe, seg.nodes, seg.counts)
				n.PrependLevels(pe, seg.nodes, seg.counts)
			}
		}

		kres := kernelCycle(k, d, shards, scratch)
		var nres Expansion
		nres, buf = naiveCycle(n, d, buf)
		if kres != nres {
			t.Fatalf("cycle %d: kernel %+v, naive %+v", c, kres, nres)
		}
		sameArenas(t, k, n, fmt.Sprintf("after cycle %d", c))

		for pe := c % 5; pe < p; pe += 5 {
			to := (pe*7 + c) % p
			if k.Ghost(pe) == 0 && k.Splittable(pe) && k.Empty(to) {
				for _, a := range []*Arena[S]{k, n} {
					splitOne(BottomNode[S]{}, a, pe, to)
					a.SyncBits(pe)
					a.SyncBits(to)
				}
			}
		}
		if ghosts {
			for pe := c % 4; pe < p; pe += 4 {
				if rd := k.ResidentDepth(pe); rd >= 2 {
					drop := rd - (pe+c)%2 // all resident levels, or all but the top
					seg := captureBottom(k, pe, drop)
					segs[pe] = append(segs[pe], seg)
					k.DropBottom(pe, drop)
					n.DropBottom(pe, drop)
				}
			}
		}
		sameArenas(t, k, n, fmt.Sprintf("between cycles %d and %d", c, c+1))
	}
}

// TestExpandKernelEquivalence pins the kernel to the per-PE loop it
// replaced, over machine sizes on both sides of a word and shard boundary.
func TestExpandKernelEquivalence(t *testing.T) {
	tree := synthetic.New(1, 9)
	for _, p := range []int{1, 63, 64, 65, 200, 8192} {
		cycles := 150 // past the synthetic roots' budgets: the PEs drain
		if p > 200 {
			cycles = 40
		}
		if testing.Short() {
			cycles /= 3
		}
		layouts := [][][2]int{{{0, p}}}
		for _, workers := range []int{2, 3, 4, 8} {
			layouts = append(layouts, wordShards(p, workers))
		}
		for li, shards := range layouts {
			if li > 0 && len(shards) == 1 {
				continue // fewer than two words: same as the full range
			}
			ghosts := li%2 == 0
			t.Run(fmt.Sprintf("fan/P=%d/shards=%d", p, len(shards)), func(t *testing.T) {
				twinRun[int](t, fanDomain{maxDepth: 14}, func(pe int) int { return int(mix(uint64(pe))>>24) << 8 }, p, shards, cycles, ghosts)
			})
			t.Run(fmt.Sprintf("synthetic/P=%d/shards=%d", p, len(shards)), func(t *testing.T) {
				root := func(pe int) synthetic.Node {
					return synthetic.Node{Budget: int64(40 + pe%90), Seed: uint64(pe) * 0x9e3779b97f4a7c15}
				}
				twinRun[synthetic.Node](t, tree, root, p, shards, cycles, !ghosts)
			})
		}
	}
}

// TestExpandKernelNotResident: a PE whose levels were all dropped and not
// restored has its bit set and nothing to pop.  The kernel must report it,
// leave it alone, and still expand its neighbours.
func TestExpandKernelNotResident(t *testing.T) {
	a := NewArena[int](70)
	for _, pe := range []int{3, 5, 66} {
		a.PushLevel(pe, []int{pe << 8, pe<<8 + 1<<16})
	}
	a.DropBottom(5, a.ResidentDepth(5))
	a.DropBottom(66, a.ResidentDepth(66))
	res := oneCycle(a, fanDomain{maxDepth: 3}, 0, 70, new(ExpandScratch[int]))
	if res.NotResident != 5 || res.Expanded != 1 {
		t.Fatalf("got %+v, want NotResident 5 and one expansion (PE 3)", res)
	}
	for _, pe := range []int{5, 66} {
		if a.Size(pe) != 2 || a.Resident(pe) != 0 || !a.WorkBits().Get(pe) || !a.SplitBits().Get(pe) {
			t.Fatalf("PE %d: size %d resident %d work %v split %v, want its two ghost nodes and both bits kept",
				pe, a.Size(pe), a.Resident(pe), a.WorkBits().Get(pe), a.SplitBits().Get(pe))
		}
	}
	checkBits(t, a)
}

// oneCycle runs one cycle through the kernel and returns its reduction.
func oneCycle[S any](a *Arena[S], d Expander[S], lo, hi int, sc *ExpandScratch[S]) Expansion {
	var res [1]Expansion
	a.ExpandCycle(d, lo, hi, sc, res[:])
	return res[0]
}

// kernelBatch runs k cycles in one kernel call per shard, concurrently, and
// reduces them cycle by cycle in shard order, summing the histograms.
func kernelBatch[S any](a *Arena[S], d Expander[S], shards [][2]int, scratch []*ExpandScratch[S], k int) ([]Expansion, [MaxBatch + 1]int32) {
	parts := make([][]Expansion, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		parts[i] = make([]Expansion, k)
		wg.Add(1)
		go func(i int, lo, hi int) {
			defer wg.Done()
			a.ExpandCycle(d, lo, hi, scratch[i], parts[i])
		}(i, sh[0], sh[1])
	}
	wg.Wait()
	res := parts[0]
	var held [MaxBatch + 1]int32
	for i := range parts {
		if i > 0 {
			for j := range res {
				res[j].Merge(parts[i][j])
			}
		}
		for s, n := range scratch[i].Held {
			held[s] += n
		}
	}
	return res, held
}

// TestExpandKernelBatch: k cycles in one call, each PE running its cycles
// back to back, leave the arena, the flag words and every cycle's reduction
// exactly as k one-cycle calls do, over word and shard boundaries; the size
// histogram counts the final size of every PE that had work.  A PE whose
// window empties onto evicted levels mid-batch is reported at the cycle it
// could not pop in, as the one-cycle kernel reports it.
func TestExpandKernelBatch(t *testing.T) {
	for _, p := range []int{1, 65, 200, 4096} {
		for _, workers := range []int{1, 3} {
			for _, k := range []int{1, 2, 5, MaxBatch} {
				for _, ghosts := range []bool{false, true} {
					shards := wordShards(p, workers)
					t.Run(fmt.Sprintf("P=%d/shards=%d/k=%d/ghosts=%v", p, len(shards), k, ghosts), func(t *testing.T) {
						batchTwins(t, p, shards, k, ghosts)
					})
				}
			}
		}
	}
}

func batchTwins(t *testing.T, p int, shards [][2]int, k int, ghosts bool) {
	d := fanDomain{maxDepth: 12}
	b, o := NewArena[int](p), NewArena[int](p)
	for pe := 0; pe < p; pe++ {
		if pe%3 != 1 {
			for _, a := range []*Arena[int]{b, o} {
				a.PushLevel(pe, []int{int(mix(uint64(pe))>>24) << 8, int(mix(uint64(pe+p))>>24) << 8})
			}
		}
	}
	scratch := make([]*ExpandScratch[int], len(shards))
	for i := range scratch {
		scratch[i] = new(ExpandScratch[int])
	}
	sc := new(ExpandScratch[int])
	for round := 0; round < 12 && !o.NoWork(); round++ {
		if ghosts {
			// Evict everything below the top level of every fourth PE: it
			// pops its top level dry within the batch and then stalls.
			for pe := round % 4; pe < p; pe += 4 {
				if rd := b.ResidentDepth(pe); rd >= 2 {
					b.DropBottom(pe, rd-1)
					o.DropBottom(pe, rd-1)
				}
			}
		}
		touched := make([]bool, p)
		for pe := range touched {
			touched[pe] = b.Resident(pe) > 0
		}
		got, held := kernelBatch(b, d, shards, scratch, k)
		fault := k
		for j := 0; j < k; j++ {
			want := oneCycle(o, d, 0, p, sc)
			if got[j] != want {
				t.Fatalf("round %d cycle %d: batch %+v, one cycle at a time %+v", round, j, got[j], want)
			}
			if want.NotResident >= 0 {
				fault = j
				break
			}
		}
		for j := fault + 1; j < k; j++ {
			oneCycle(o, d, 0, p, sc) // the stalled PEs stay stalled; the rest go on
		}
		sameArenas(t, b, o, fmt.Sprintf("after round %d", round))
		var want [MaxBatch + 1]int32
		for pe, tc := range touched {
			if tc {
				want[min(b.Size(pe), MaxBatch)]++
			}
		}
		if held != want {
			t.Fatalf("round %d: histogram %v, want %v", round, held, want)
		}
		if fault < k {
			// Restore every stalled PE, as the fault barrier would.
			for pe := 0; pe < p; pe++ {
				if b.Resident(pe) == 0 && b.Ghost(pe) > 0 {
					for _, a := range []*Arena[int]{b, o} {
						nodes := make([]int, a.Ghost(pe))
						counts := make([]int, a.GhostLevels(pe))
						for i := range counts {
							counts[i] = 1
						}
						counts[len(counts)-1] += len(nodes) - len(counts)
						a.PrependLevels(pe, nodes, counts)
					}
				}
			}
		}
	}
}

// countDown is a chain: node s has the one successor s-1, and 7 breaks the
// Expand contract by handing back less than it was given.
type countDown struct{}

func (countDown) Goal(int) bool { return false }

func (countDown) Expand(s int, buf []int) []int {
	switch {
	case s == 7 && len(buf) > 0:
		return buf[:len(buf)-1]
	case s > 0:
		return append(buf, s-1)
	}
	return buf
}

// TestExpandKernelBatchTruncated: a PE whose Expand breaks the contract
// stops at that cycle, which is the cycle the batch reports it in; the
// cycles before it are the one-cycle kernel's.
func TestExpandKernelBatchTruncated(t *testing.T) {
	b, o := NewArena[int](3), NewArena[int](3)
	for _, a := range []*Arena[int]{b, o} {
		a.PushLevel(0, []int{5})
		a.PushLevel(1, []int{3, 9}) // pops the 7 in its third cycle
		a.PushLevel(2, []int{6})
	}
	res := make([]Expansion, 4)
	b.ExpandCycle(countDown{}, 0, 3, new(ExpandScratch[int]), res)
	sc := new(ExpandScratch[int])
	for j := 0; j < 3; j++ {
		if want := oneCycle(o, countDown{}, 0, 3, sc); res[j] != want {
			t.Fatalf("cycle %d: batch %+v, one cycle at a time %+v", j, res[j], want)
		}
	}
	if res[0].Truncated || res[1].Truncated || !res[2].Truncated || res[3].Expanded != 2 {
		t.Fatalf("got %+v, want truncation at cycle 2 only and two PEs in cycle 3", res)
	}
	if got := fmt.Sprint(flattenPE(b, 1)); got != "[[3]]" {
		t.Errorf("the truncating PE holds %s, want [[3]]: it stops where its Expand broke", got)
	}
	checkBits(t, b)
}
