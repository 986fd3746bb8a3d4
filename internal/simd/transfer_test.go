package simd

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"simdtree/internal/scan"
	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
	"simdtree/internal/trigger"
	"simdtree/internal/wire"
)

// roundMachine builds a machine whose arena holds one matching round of the
// given size: pairwise-distinct donors with random multi-level stacks and
// idle receivers, scattered over the PEs in random order.  In the middle of
// every other 64-pair block it plants the two donors a block must refuse —
// one that holds a single node and one whose bottom level is evicted (no
// spiller is registered, so nothing restores it).  The same arguments build
// the same machine.
func roundMachine(t *testing.T, sp stack.Splitter[synthetic.Node], workers, round int) (*Machine[synthetic.Node], []scan.Pair) {
	t.Helper()
	trig, err := trigger.Parse("S1.00")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine[synthetic.Node](synthetic.New(1, 1),
		Scheme[synthetic.Node]{Label: "round", Trigger: trig, Balancer: &ghostDonorBalancer{}, Splitter: sp},
		Options{P: 2*round + 7, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	a := m.Arena()
	a.Clear(0) // the root NewMachine seeded
	rng := rand.New(rand.NewSource(int64(round)))
	order := rng.Perm(a.P())
	pairs := make([]scan.Pair, round)
	next := int64(0)
	level := func(n int) []synthetic.Node {
		lv := make([]synthetic.Node, n)
		for i := range lv {
			next++
			lv[i] = synthetic.Node{Budget: next, Seed: uint64(next) * 31}
		}
		return lv
	}
	for k := range pairs {
		from := order[2*k]
		pairs[k] = scan.Pair{From: from, To: order[2*k+1]}
		switch k % 128 {
		case 31: // not splittable
			a.PushLevel(from, level(1))
		case 40: // splittable, but its bottom is on stable storage
			a.PushLevel(from, level(2))
			a.PushLevel(from, level(3))
			a.DropBottom(from, 1)
		default:
			a.PushLevel(from, level(2+rng.Intn(3))) // at least two nodes
			for l := rng.Intn(4); l > 0; l-- {
				a.PushLevel(from, level(1+rng.Intn(3)))
			}
		}
	}
	return m, pairs
}

// TestTransferAllEqualsPairwise: a round handed to TransferAll whole — cut
// into the splitter's gather/scatter blocks, and into worker shards when
// there are workers — leaves every PE, the phase accounting and the donor
// trace exactly as the same pairs transferred one at a time, in order, do.
// The round sizes sit around the block boundary; 1000 spreads blocks over
// every shard.
func TestTransferAllEqualsPairwise(t *testing.T) {
	codec := wire.SyntheticCodec{}
	splitters := []stack.Splitter[synthetic.Node]{
		stack.BottomNode[synthetic.Node]{}, stack.HalfStack[synthetic.Node]{}, stack.TopNode[synthetic.Node]{},
	}
	for _, sp := range splitters {
		for _, workers := range []int{1, 4} {
			for _, round := range []int{1, 63, 64, 65, 1000} {
				t.Run(fmt.Sprintf("%s/workers=%d/pairs=%d", sp.Name(), workers, round), func(t *testing.T) {
					whole, pairs := roundMachine(t, sp, workers, round)
					whole.startPool() // the shards really run concurrently (and under -race)
					defer whole.stopPool()
					whole.lbCtx.reset(true)
					done := whole.lbCtx.TransferAll(pairs)

					single, _ := roundMachine(t, sp, workers, round)
					single.lbCtx.reset(true)
					wantDone := 0
					for _, p := range pairs {
						if single.lbCtx.Transfer(p.From, p.To) > 0 {
							wantDone++
						}
					}

					refused := 0
					for k := range pairs {
						if k%128 == 31 || k%128 == 40 {
							refused++
						}
					}
					if done != wantDone || done != round-refused {
						t.Errorf("TransferAll moved work on %d pairs, pair by pair %d, want %d (%d planted refusals)", done, wantDone, round-refused, refused)
					}
					got, want := whole.lbCtx, single.lbCtx
					if got.transfers != want.transfers || got.maxTransfer != want.maxTransfer {
						t.Errorf("accounting: %d transfers, largest %d; pair by pair %d, largest %d", got.transfers, got.maxTransfer, want.transfers, want.maxTransfer)
					}
					if !slices.Equal(got.donors, want.donors) {
						t.Errorf("donor trace %v, pair by pair %v", got.donors, want.donors)
					}
					ga, wa := whole.Arena(), single.Arena()
					for pe := 0; pe < ga.P(); pe++ {
						if !bytes.Equal(wire.EncodeArena[synthetic.Node](nil, codec, ga, pe), wire.EncodeArena[synthetic.Node](nil, codec, wa, pe)) ||
							stateOf(ga, pe) != stateOf(wa, pe) {
							t.Fatalf("PE %d: %v, pair by pair %v (resident levels %v vs %v)", pe, stateOf(ga, pe), stateOf(wa, pe), levelsOf(whole, pe), levelsOf(single, pe))
						}
						if ga.WorkBits().Get(pe) != !ga.Empty(pe) || ga.SplitBits().Get(pe) != ga.Splittable(pe) {
							t.Fatalf("PE %d: flags stale after the round (size %d)", pe, ga.Size(pe))
						}
					}
				})
			}
		}
	}
}

// TestTransferAllFreshReceiversShareWords is the regression test for the race
// a lazily allocated home chunk invites: a round of 256 pairs at Workers=4 is
// cut into four shards by pair index, and here pair k's receiver is PE
// 256 + 4*(k%64) + k/64 — every shard has 16 receivers in each of the flag
// words 4-7, none of those PEs has ever held a node, and none of those words
// has a chunk yet, so the shards take the first windows of the same words
// concurrently (stack.Arena.window publishes a word's chunk by compare-and-swap
// and a receiver writes only its own record).  Under -race; the PEs must
// encode to the bytes of the same pairs transferred one at a time.
func TestTransferAllFreshReceiversShareWords(t *testing.T) {
	codec := wire.SyntheticCodec{}
	const round = 4 * parallelPairMin
	build := func(sp stack.Splitter[synthetic.Node], workers int) (*Machine[synthetic.Node], []scan.Pair) {
		trig, err := trigger.Parse("S1.00")
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine[synthetic.Node](synthetic.New(1, 1),
			Scheme[synthetic.Node]{Label: "round", Trigger: trig, Balancer: &ghostDonorBalancer{}, Splitter: sp},
			Options{P: 2 * round, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		a := m.Arena()
		a.Clear(0) // the root NewMachine seeded
		pairs := make([]scan.Pair, round)
		for k := range pairs {
			pairs[k] = scan.Pair{From: k, To: round + 4*(k%64) + k/64}
			for l := 0; l < 1+k%3; l++ { // one to three levels of two to four nodes
				lv := make([]synthetic.Node, 2+(k+l)%3)
				for i := range lv {
					lv[i] = synthetic.Node{Budget: int64(k), Seed: uint64(8*l + i)}
				}
				a.PushLevel(k, lv)
			}
		}
		return m, pairs
	}
	for _, sp := range []stack.Splitter[synthetic.Node]{stack.BottomNode[synthetic.Node]{}, stack.HalfStack[synthetic.Node]{}} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", sp.Name(), workers), func(t *testing.T) {
				whole, pairs := build(sp, workers)
				whole.startPool()
				defer whole.stopPool()
				whole.lbCtx.reset(false)
				if done := whole.lbCtx.TransferAll(pairs); done != round {
					t.Fatalf("TransferAll moved work on %d of %d pairs", done, round)
				}
				single, _ := build(sp, workers)
				single.lbCtx.reset(false)
				for _, p := range pairs {
					single.lbCtx.Transfer(p.From, p.To)
				}
				ga, wa := whole.Arena(), single.Arena()
				for pe := 0; pe < ga.P(); pe++ {
					if !bytes.Equal(wire.EncodeArena[synthetic.Node](nil, codec, ga, pe), wire.EncodeArena[synthetic.Node](nil, codec, wa, pe)) {
						t.Fatalf("PE %d: %v (levels %v), pair by pair %v (levels %v)", pe, stateOf(ga, pe), levelsOf(whole, pe), stateOf(wa, pe), levelsOf(single, pe))
					}
				}
			})
		}
	}
}
