package simd_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"reflect"
	"testing"
	"time"

	"simdtree/internal/match"
	"simdtree/internal/scan"
	"simdtree/internal/simd"
	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
	"simdtree/internal/topology"
	"simdtree/internal/trace"
)

var mutants = flag.Bool("mutants", false, "run the planted mutants: each subtest of TestPlantedMutants passes when the referees catch its mutant")

// fullerLanes reports every PE one node fuller than it is, so the loop's
// horizon runs a cycle past the first one at which the trigger could fire.
type fullerLanes struct{ simd.Lanes }

func (l fullerLanes) Held() []int32 {
	h := l.Lanes.Held()
	if h == nil {
		return nil
	}
	out := make([]int32, len(h))
	copy(out[1:], h[:len(h)-1])
	out[len(h)-1] += h[len(h)-1]
	return out
}

// stuckGP is GP matching whose global pointer never advances.
type stuckGP struct{ *match.GP }

func (g stuckGP) MatchBits(busy, idle scan.Bits, n int) []scan.Pair {
	at := g.Pointer()
	pairs := g.GP.MatchBits(busy, idle, n)
	g.SetPointer(at)
	return pairs
}

// splitOffByOne donates one node more than its inner splitter: after every
// split that moved work, the donor's bottom node goes to the receiver too.
type splitOffByOne[S any] struct{ stack.Splitter[S] }

func (s splitOffByOne[S]) SplitBlock(a *stack.Arena[S], pairs []scan.Pair, moved []int, nodes []S) []S {
	nodes = s.Splitter.SplitBlock(a, pairs, moved, nodes)
	var one [1]int
	for k := range pairs {
		if moved[k] > 0 {
			nodes = stack.BottomNode[S]{}.SplitBlock(a, pairs[k:k+1], one[:], nodes)
			moved[k] += one[0]
		}
	}
	return nodes
}

// TestPlantedMutants runs three planted faults against the referees; each
// subtest passes when its mutant is caught and fails when it survives, and
// they run only with -mutants:
//
//   - horizon-one-long: Held reports every PE one node fuller, so a batch
//     runs one cycle past where the trigger may fire.  The loop's check that
//     no trigger fires inside a batch stops the run with an error, which
//     fails TestReferenceMachine's comparison and TestBatchedEqualsOneCycle.
//   - gp-pointer-stuck: GP's pointer is not advanced after a round, so GP
//     matches as nGP does.  The reference machine's per-phase donor lists
//     catch it at the first phase whose donors wrap.
//   - split-off-by-one: the splitter donates one node more than bottom-node
//     or half-stack splitting does.  The extra node changes which PEs can
//     split, and the reference machine's per-phase transfer counts and
//     donor lists catch it (on this tree at the third phase).
func TestPlantedMutants(t *testing.T) {
	if !*mutants {
		t.Skip("planted mutants run with -mutants; each must be caught")
	}
	syn := synthetic.New(20000, 0x5EED)
	same := func(l simd.Lanes) simd.Lanes { return l }
	for _, m := range []struct {
		name  string
		split string
		wrap  func(simd.Lanes) simd.Lanes
		edit  func(*simd.Scheme[synthetic.Node])
	}{
		{"horizon-one-long", "bottom", func(l simd.Lanes) simd.Lanes { return fullerLanes{l} }, nil},
		{"gp-pointer-stuck", "bottom", same, func(sch *simd.Scheme[synthetic.Node]) {
			sch.Balancer = &simd.MatchBalancer[synthetic.Node]{Matcher: stuckGP{match.NewGP()}}
		}},
		{"split-off-by-one/bottom", "bottom", same, func(sch *simd.Scheme[synthetic.Node]) {
			sch.Splitter = splitOffByOne[synthetic.Node]{stack.BottomNode[synthetic.Node]{}}
		}},
		{"split-off-by-one/half", "half", same, func(sch *simd.Scheme[synthetic.Node]) {
			sch.Splitter = splitOffByOne[synthetic.Node]{stack.HalfStack[synthetic.Node]{}}
		}},
	} {
		t.Run(m.name, func(t *testing.T) {
			err := mutantCheck(syn, "GP-DK", m.split, 64, m.wrap, m.edit)
			if err == nil {
				t.Fatal("the mutant survived: the run matches the reference machine's")
			}
			t.Logf("caught: %v", err)
		})
	}
}

// mutantCheck runs the engine, with wrap around its lanes and edit applied
// to its scheme, against the reference machine's run of label and split,
// and returns the engine's error or the first difference, nil when the runs
// agree.
func mutantCheck(d *synthetic.Tree, label, split string, p int, wrap func(simd.Lanes) simd.Lanes, edit func(*simd.Scheme[synthetic.Node])) error {
	c := simd.CM2Costs()
	ref := &refMachine[synthetic.Node]{
		d: d, p: p, sc: parseRefScheme(label, split), ucalc: c.NodeExpansion,
		cost: func(rounds, maxNodes int) time.Duration {
			return c.PhaseCost(topology.CM2{}, p, rounds) + c.MessageCost(topology.CM2{}, p, maxNodes)
		},
	}
	want := ref.run()
	sch, err := simd.ParseScheme[synthetic.Node](label)
	if err != nil {
		return err
	}
	if edit != nil {
		edit(&sch)
	}
	tr := &trace.Trace{CaptureDonors: true}
	m, err := simd.NewMachine[synthetic.Node](d, sch, simd.Options{P: p, Trace: tr})
	if err != nil {
		return err
	}
	st, err := simd.RunThrough[synthetic.Node](context.Background(), m, wrap)
	if err != nil {
		return fmt.Errorf("the engine's run failed: %w", err)
	}
	got := refResult{Cycles: st.Cycles, Phases: st.LBPhases, Transfers: st.Transfers, Peak: st.PeakStack, W: st.W, Goals: st.Goals}
	for _, s := range tr.Samples {
		got.Active = append(got.Active, s.Active)
	}
	for _, e := range tr.Events {
		got.Events = append(got.Events, refPhase{Cycle: e.Cycle, Transfers: e.Transfers, Cost: e.Cost, Donors: e.Donors})
	}
	for i := range want.Events {
		if i >= len(got.Events) {
			return fmt.Errorf("the engine ran %d phases, the reference machine %d", len(got.Events), len(want.Events))
		}
		if !reflect.DeepEqual(got.Events[i], want.Events[i]) {
			return fmt.Errorf("phase %d: engine %+v, reference %+v", i, got.Events[i], want.Events[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		return errors.New("the run differs from the reference machine's")
	}
	return nil
}
