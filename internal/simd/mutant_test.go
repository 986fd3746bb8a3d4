package simd_test

import (
	"context"
	"flag"
	"reflect"
	"testing"
	"time"

	"simdtree/internal/match"
	"simdtree/internal/scan"
	"simdtree/internal/simd"
	"simdtree/internal/synthetic"
	"simdtree/internal/topology"
	"simdtree/internal/trace"
)

var mutants = flag.Bool("mutants", false, "run the planted mutants: each subtest of TestPlantedMutants must fail")

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

// TestPlantedMutants runs two planted faults against the referees; each
// subtest fails when its mutant is caught, so they run only with -mutants:
//
//   - horizon-one-long: Held reports every PE one node fuller, so a batch
//     runs one cycle past where the trigger may fire.  The loop's check that
//     no trigger fires inside a batch stops the run with an error, which
//     fails TestReferenceMachine's comparison and TestBatchedEqualsOneCycle.
//   - gp-pointer-stuck: GP's pointer is not advanced after a round, so GP
//     matches as nGP does.  The reference machine's per-phase donor lists
//     catch it at the first phase whose donors wrap.
func TestPlantedMutants(t *testing.T) {
	if !*mutants {
		t.Skip("planted mutants run with -mutants; each subtest must fail")
	}
	syn := synthetic.New(20000, 0x5EED)
	t.Run("horizon-one-long", func(t *testing.T) {
		mutantCheck(t, syn, "GP-DK", 64, func(l simd.Lanes) simd.Lanes { return fullerLanes{l} }, nil)
	})
	t.Run("gp-pointer-stuck", func(t *testing.T) {
		mutantCheck(t, syn, "GP-DK", 64, func(l simd.Lanes) simd.Lanes { return l }, func(sch *simd.Scheme[synthetic.Node]) {
			sch.Balancer = &simd.MatchBalancer[synthetic.Node]{Matcher: stuckGP{match.NewGP()}}
		})
	})
}

// mutantCheck runs the engine, with wrap around its lanes and edit applied
// to its scheme, against the reference machine's run of label.
func mutantCheck(t *testing.T, d *synthetic.Tree, label string, p int, wrap func(simd.Lanes) simd.Lanes, edit func(*simd.Scheme[synthetic.Node])) {
	c := simd.CM2Costs()
	ref := &refMachine[synthetic.Node]{
		d: d, p: p, sc: parseRefScheme(label, "bottom"), ucalc: c.NodeExpansion,
		cost: func(rounds, maxNodes int) time.Duration {
			return c.PhaseCost(topology.CM2{}, p, rounds) + c.MessageCost(topology.CM2{}, p, maxNodes)
		},
	}
	want := ref.run()
	sch, err := simd.ParseScheme[synthetic.Node](label)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(&sch)
	}
	tr := &trace.Trace{CaptureDonors: true}
	m, err := simd.NewMachine[synthetic.Node](d, sch, simd.Options{P: p, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	st, err := simd.RunThrough[synthetic.Node](context.Background(), m, wrap)
	if err != nil {
		t.Fatalf("the engine's run failed: %v", err)
	}
	got := refResult{Cycles: st.Cycles, Phases: st.LBPhases, Transfers: st.Transfers, Peak: st.PeakStack, W: st.W, Goals: st.Goals}
	for _, s := range tr.Samples {
		got.Active = append(got.Active, s.Active)
	}
	for _, e := range tr.Events {
		got.Events = append(got.Events, refPhase{Cycle: e.Cycle, Transfers: e.Transfers, Cost: e.Cost, Donors: e.Donors})
	}
	for i := range want.Events {
		if i >= len(got.Events) || !reflect.DeepEqual(got.Events[i], want.Events[i]) {
			t.Fatalf("phase %d differs from the reference machine's", i)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the run differs from the reference machine's")
	}
}
