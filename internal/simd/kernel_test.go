package simd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"simdtree/internal/scan"
	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
	"simdtree/internal/trigger"
)

// TestShardsOwnWholeWords pins what the expansion kernel's unsynchronised
// whole-word flag stores rest on: every shard starts on a 64-PE word
// boundary, the shards tile [0, P) in order, and none is empty.
func TestShardsOwnWholeWords(t *testing.T) {
	for _, p := range []int{1, 63, 64, 65, 127, 128, 200, 1000, 8192, 65536} {
		for workers := 1; workers <= 9; workers++ {
			shards := makeShards(p, workers)
			next := 0
			for i, sh := range shards {
				if sh.lo%64 != 0 {
					t.Errorf("P=%d workers=%d: shard %d starts at %d, inside a flag word", p, workers, i, sh.lo)
				}
				if sh.lo != next || sh.hi <= sh.lo {
					t.Errorf("P=%d workers=%d: shard %d is [%d, %d), want a non-empty range from %d", p, workers, i, sh.lo, sh.hi, next)
				}
				next = sh.hi
			}
			if next != p || len(shards) > workers {
				t.Errorf("P=%d workers=%d: %d shards ending at %d", p, workers, len(shards), next)
			}
		}
	}
}

// lossySpiller evicts every resident level of one busy PE just before
// cycle number at (Barrier runs once before every cycle) and never brings
// them back: a Barrier that restores nothing.
type lossySpiller struct {
	at, barriers int
	pe           int // the PE it stranded, -1 before
}

func (s *lossySpiller) Barrier(a *stack.Arena[synthetic.Node]) error {
	if s.barriers++; s.barriers != s.at {
		return nil
	}
	for pe := a.P() - 1; pe >= 0; pe-- {
		if a.ResidentDepth(pe) > 0 {
			a.DropBottom(pe, a.ResidentDepth(pe))
			s.pe = pe
			break
		}
	}
	return nil
}

func (s *lossySpiller) Sweep(*stack.Arena[synthetic.Node]) error { return nil }

func (s *lossySpiller) FaultAll(*stack.Arena[synthetic.Node], int) error { return nil }
func (s *lossySpiller) Reset() error                                     { return nil }

// TestCycleReportsNotResident: a PE whose has-work bit is set but whose
// stack is not in memory must stop the run with ErrNotResident at the end
// of that cycle.  It is not expanded, so W is exactly one short of the clean
// run's W over the same cycles.
func TestCycleReportsNotResident(t *testing.T) {
	const p, at = 192, 25
	tree := synthetic.New(60000, 5)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sch, err := ParseScheme[synthetic.Node]("GP-DK")
			if err != nil {
				t.Fatal(err)
			}
			clean, err := Run[synthetic.Node](tree, sch, Options{P: p, Workers: workers, MaxCycles: at})
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("clean prefix: %v", err)
			}

			sch, _ = ParseScheme[synthetic.Node]("GP-DK")
			m, err := NewMachine[synthetic.Node](tree, sch, Options{P: p, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			sp := &lossySpiller{at: at, pe: -1}
			m.SetSpiller(sp)
			st, err := m.RunContext(context.Background())
			if !errors.Is(err, ErrNotResident) {
				t.Fatalf("run returned %v, want ErrNotResident", err)
			}
			if sp.pe < 0 {
				t.Fatal("the spiller found no PE to strand")
			}
			if want := fmt.Sprintf("PE %d ", sp.pe); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), fmt.Sprintf("cycle %d", at)) {
				t.Errorf("error %q does not name PE %d and cycle %d", err, sp.pe, at)
			}
			if st.Cycles != at || st.W != clean.W-1 {
				t.Errorf("stopped at cycle %d with W=%d; the clean run has W=%d after %d cycles, want one less", st.Cycles, st.W, clean.W, at)
			}
			a := m.Arena()
			if a.Resident(sp.pe) != 0 || a.Ghost(sp.pe) == 0 || !a.WorkBits().Get(sp.pe) {
				t.Errorf("PE %d: resident %d ghost %d work bit %v, want it left as the spiller stranded it",
					sp.pe, a.Resident(sp.pe), a.Ghost(sp.pe), a.WorkBits().Get(sp.pe))
			}
		})
	}
}

// errRestore is what failingSpiller's FaultAll returns.
var errRestore = errors.New("segment unreadable")

// failingSpiller evicts the bottom level of every PE that is two or more
// levels deep at each Sweep and can never bring one back.
type failingSpiller struct{ evicted int }

func (s *failingSpiller) Barrier(*stack.Arena[synthetic.Node]) error { return nil }

func (s *failingSpiller) Sweep(a *stack.Arena[synthetic.Node]) error {
	for pe := 0; pe < a.P(); pe++ {
		if a.ResidentDepth(pe) >= 2 {
			a.DropBottom(pe, 1)
			s.evicted++
		}
	}
	return nil
}

func (s *failingSpiller) FaultAll(*stack.Arena[synthetic.Node], int) error { return errRestore }
func (s *failingSpiller) Reset() error                                     { return nil }

// peState is what a transfer could disturb on one PE.
type peState struct{ size, resident, ghost, depth int }

func stateOf(a *stack.Arena[synthetic.Node], pe int) peState {
	return peState{a.Size(pe), a.Resident(pe), a.Ghost(pe), a.Depth(pe)}
}

// ghostDonorBalancer pairs every splittable PE that has evicted levels with
// an idle PE, runs the round through TransferAll, and checks that nothing
// moved: the restore fails, so the donors must be left alone.
type ghostDonorBalancer struct {
	t     *testing.T
	pairs int // donors offered, over all phases
}

func (b *ghostDonorBalancer) Name() string { return "ghost-donors" }

func (b *ghostDonorBalancer) Balance(c *Context[synthetic.Node]) (rounds, transfers int) {
	a := c.Arena
	var pairs []scan.Pair
	to := 0
	for from := 0; from < a.P(); from++ {
		if a.Ghost(from) == 0 || !a.Splittable(from) {
			continue
		}
		for to < a.P() && !a.Empty(to) {
			to++
		}
		if to == a.P() {
			break
		}
		pairs = append(pairs, scan.Pair{From: from, To: to})
		to++
	}
	before := make([][2]peState, len(pairs))
	for i, p := range pairs {
		before[i] = [2]peState{stateOf(a, p.From), stateOf(a, p.To)}
	}
	if done := c.TransferAll(pairs); done != 0 {
		b.t.Errorf("%d of %d transfers from donors with evicted levels went through", done, len(pairs))
	}
	for i, p := range pairs {
		if after := [2]peState{stateOf(a, p.From), stateOf(a, p.To)}; after != before[i] {
			b.t.Errorf("pair %d->%d: size/resident/ghost/depth %v, before the phase %v", p.From, p.To, after, before[i])
			break
		}
	}
	b.pairs += len(pairs)
	return 1, 0
}

// TestFailedRestoreLeavesDonorAlone: when a donor's evicted levels cannot be
// restored, the phase must not split its resident window (whose bottom is
// not the stack's bottom) — the refusal happens inside the splitter's block,
// after the restore pre-pass every worker count now runs — and the run must
// end with the restore error.  65 pairs is one block boundary (64 + 1, and
// just past parallelPairMin); 100 gives every worker shard a block.
func TestFailedRestoreLeavesDonorAlone(t *testing.T) {
	const p = 256
	tree := synthetic.New(1, 5)
	leaf := synthetic.Node{Budget: 1}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, busy := range []int{65, 100} {
				trig, err := trigger.Parse("S1.00")
				if err != nil {
					t.Fatal(err)
				}
				bal := &ghostDonorBalancer{t: t}
				m, err := NewMachine[synthetic.Node](tree, Scheme[synthetic.Node]{Label: "ghost-donors", Trigger: trig, Balancer: bal},
					Options{P: p, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for pe := 0; pe < busy; pe++ {
					m.Arena().Clear(pe)
					for l := 0; l < 3; l++ {
						m.Arena().PushLevel(pe, []synthetic.Node{leaf, leaf, leaf})
					}
				}
				sp := &failingSpiller{}
				m.SetSpiller(sp)
				if _, err := m.RunContext(context.Background()); !errors.Is(err, errRestore) {
					t.Fatalf("%d donors: run returned %v, want the restore error", busy, err)
				}
				if sp.evicted < busy || bal.pairs < busy {
					t.Fatalf("%d evictions, %d ghost donors offered; want at least %d of each", sp.evicted, bal.pairs, busy)
				}
			}
		})
	}
}
