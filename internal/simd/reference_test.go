package simd_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
	"simdtree/internal/topology"
	"simdtree/internal/trace"
)

// This file is a second, independent implementation of the paper's Section
// 3 machine, written from the paper rather than from this package: P stacks
// of levels as plain slices, busy/idle flags as []bool, GP and nGP matching
// spelled out flag by flag, the three triggers as equations 1, 2 and 4, and
// its own one-cycle-at-a-time loop.  It shares no code with internal/simd,
// internal/stack or internal/match; only the phase cost is handed in, since
// the cost model is not what it referees.  TestReferenceMachine holds the
// engine to it on every Table 1 scheme, splitter and machine size.

// refScheme is a Table 1 scheme as the reference machine reads its label.
type refScheme struct {
	gp    bool    // GP matching (global pointer); nGP otherwise
	trig  string  // "S", "DP" or "DK"
	x     float64 // S^x's threshold
	split string  // "bottom", "top" or "half"
}

func parseRefScheme(label, split string) refScheme {
	m, t, _ := strings.Cut(label, "-")
	sc := refScheme{gp: m == "GP", trig: t, split: split}
	if strings.HasPrefix(t, "S") {
		sc.trig = "S"
		sc.x, _ = strconv.ParseFloat(t[1:], 64)
	}
	return sc
}

// refPhase is one load-balancing phase as the trace records it.
type refPhase struct {
	Cycle, Transfers int
	Cost             time.Duration
	Donors           []int
}

// refResult is what the reference machine reproduces of a run.
type refResult struct {
	Cycles, Phases, Transfers, Peak int
	W, Goals                        int64
	Active                          []int // per cycle
	Events                          []refPhase
}

// refMachine is the state of one reference run.
type refMachine[S any] struct {
	d     search.Domain[S]
	p     int
	sc    refScheme
	stk   [][][]S // stk[pe] is PE pe's stack, bottom level first
	ptr   int     // GP's global pointer: the last donor, -1 before any
	ucalc time.Duration
	cost  func(rounds, maxNodes int) time.Duration
}

func (r *refMachine[S]) size(pe int) int {
	n := 0
	for _, lvl := range r.stk[pe] {
		n += len(lvl)
	}
	return n
}

// cycle is one lock-step expansion cycle: every PE with work pops the last
// node of its top level, tests it and pushes its successors as a new level.
func (r *refMachine[S]) cycle(res *refResult) (active int) {
	for pe, levels := range r.stk {
		if len(levels) == 0 {
			continue
		}
		top := levels[len(levels)-1]
		node := top[len(top)-1]
		if len(top) == 1 {
			levels = levels[:len(levels)-1]
		} else {
			levels[len(levels)-1] = top[:len(top)-1]
		}
		active++
		if r.d.Goal(node) {
			res.Goals++
		}
		if kids := r.d.Expand(node, nil); len(kids) > 0 {
			levels = append(levels, kids)
		}
		r.stk[pe] = levels
		res.Peak = max(res.Peak, r.size(pe))
	}
	return active
}

// shouldBalance is the trigger after a cycle: equation 1 (S^x: A <= x*P),
// equation 2 (D^P: w/(t+L) >= A) or equation 4 (D^K: w_idle >= L*P).
func (r *refMachine[S]) shouldBalance(active int, t, w, wIdle, l time.Duration) bool {
	switch r.sc.trig {
	case "S":
		return float64(active) <= r.sc.x*float64(r.p)
	case "DP":
		return w >= time.Duration(active)*(t+l)
	case "DK":
		return wIdle >= l*time.Duration(r.p)
	}
	panic("unknown trigger " + r.sc.trig)
}

// match pairs the idle PEs, in index order, with as many busy ones (two
// nodes or more), counted from the PE after GP's pointer (from PE 0 under
// nGP) and wrapping around; GP's pointer moves to the last donor counted.
// The round's transfers are listed by donor index.
func (r *refMachine[S]) match(busy, idle []bool) [][2]int {
	var recv, donors []int
	for pe, f := range idle {
		if f {
			recv = append(recv, pe)
		}
	}
	start := 0
	if r.sc.gp && r.ptr >= 0 {
		start = (r.ptr + 1) % r.p
	}
	for i := 0; i < r.p && len(donors) < len(recv); i++ {
		if pe := (start + i) % r.p; busy[pe] {
			donors = append(donors, pe)
		}
	}
	if len(donors) == 0 {
		return nil
	}
	if r.sc.gp {
		r.ptr = donors[len(donors)-1]
	}
	pairs := make([][2]int, len(donors))
	for k := range donors {
		pairs[k] = [2]int{donors[k], recv[k]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	return pairs
}

// split moves work from donor to the idle receiver and returns the nodes
// moved: the bottom node (the one nearest the root), the top node (the
// deepest alternative), or the first half of every level — and the bottom
// node when every level holds one.
func (r *refMachine[S]) split(from, to int) int {
	levels := r.stk[from]
	switch r.sc.split {
	case "top":
		top := levels[len(levels)-1]
		r.stk[to] = [][]S{{top[len(top)-1]}}
		if len(top) == 1 {
			r.stk[from] = levels[:len(levels)-1]
		} else {
			levels[len(levels)-1] = top[:len(top)-1]
		}
		return 1
	case "half":
		var give, keep [][]S
		moved := 0
		for _, lvl := range levels {
			k := len(lvl) / 2
			if k > 0 {
				give = append(give, append([]S(nil), lvl[:k]...))
				moved += k
			}
			keep = append(keep, append([]S(nil), lvl[k:]...))
		}
		if moved > 0 {
			r.stk[from], r.stk[to] = keep, give
			return moved
		}
	}
	bottom := levels[0]
	r.stk[to] = [][]S{{bottom[0]}}
	if len(bottom) == 1 {
		r.stk[from] = levels[1:]
	} else {
		levels[0] = bottom[1:]
	}
	return 1
}

// balance is one load-balancing phase: matching rounds on fresh flags, one
// round for S^x and D^K, rounds until nobody can be served for D^P.
func (r *refMachine[S]) balance() (rounds, transfers, maxMoved int, donors []int) {
	for {
		busy, idle := make([]bool, r.p), make([]bool, r.p)
		for pe := range r.stk {
			busy[pe], idle[pe] = r.size(pe) >= 2, r.size(pe) == 0
		}
		pairs := r.match(busy, idle)
		if len(pairs) == 0 {
			return max(rounds, 1), transfers, maxMoved, donors
		}
		rounds++
		for _, pr := range pairs {
			if n := r.split(pr[0], pr[1]); n > 0 {
				transfers++
				maxMoved = max(maxMoved, n)
				donors = append(donors, pr[0])
			}
		}
		if r.sc.trig != "DP" {
			return rounds, transfers, maxMoved, donors
		}
	}
}

// run is the paper's loop: expansion cycles with the trigger evaluated
// after each, behind Section 7's initial distribution (balance after every
// cycle until 85 % of the PEs have work) for the dynamic triggers.
func (r *refMachine[S]) run() refResult {
	var res refResult
	r.stk = make([][][]S, r.p)
	r.stk[0] = [][]S{{r.d.Root()}}
	r.ptr = -1
	initTarget := 0
	if r.sc.trig != "S" {
		initTarget = int(math.Ceil(0.85 * float64(r.p)))
	}
	initDone := initTarget == 0
	l := r.cost(1, 0) // no phase has run yet: one round's cost
	var t, w, wIdle time.Duration
	for {
		anyWork, anyBusy := false, false
		for pe := range r.stk {
			anyWork = anyWork || r.size(pe) > 0
		}
		if !anyWork {
			return res
		}
		active := r.cycle(&res)
		res.Cycles++
		res.W += int64(active)
		res.Active = append(res.Active, active)
		t += r.ucalc
		w += time.Duration(active) * r.ucalc
		wIdle += time.Duration(r.p-active) * r.ucalc
		if !initDone && active >= initTarget {
			initDone = true
			continue
		}
		for pe := range r.stk {
			anyBusy = anyBusy || r.size(pe) >= 2
		}
		if (!initDone || r.shouldBalance(active, t, w, wIdle, l)) && active < r.p && anyBusy {
			rounds, transfers, maxMoved, donors := r.balance()
			l = r.cost(rounds, maxMoved)
			t, w, wIdle = 0, 0, 0
			res.Phases++
			res.Transfers += transfers
			res.Events = append(res.Events, refPhase{Cycle: res.Cycles, Transfers: transfers, Cost: l, Donors: donors})
		}
	}
}

// utsNode and utsTree are a UTS-style binomial tree (Olivier et al.'s
// T1/T3 family): the root has b0 children, any other node nonLeafBF = 4
// children with probability nonLeafProb = 15/64 and none otherwise, decided
// by a hash of the node.  nonLeafProb * nonLeafBF = 0.94, just below 1, so
// these are Avis and Devroye's conditional Galton-Watson trees: most root
// subtrees are a few nodes, a few are thousands, and most levels hold one
// node.  A node is a goal when its hash's low six bits are zero.
type utsNode struct {
	h     uint64
	depth int32
}

type utsTree struct {
	b0   int
	seed uint64
}

func utsMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (t utsTree) Root() utsNode       { return utsNode{h: utsMix(t.seed)} }
func (t utsTree) Goal(n utsNode) bool { return n.h&63 == 0 }
func (t utsTree) children(n utsNode) int {
	if n.depth == 0 {
		return t.b0
	}
	if float64(n.h>>11)/(1<<53) < 15.0/64 {
		return 4
	}
	return 0
}

func (t utsTree) Expand(n utsNode, buf []utsNode) []utsNode {
	for i := range t.children(n) {
		buf = append(buf, utsNode{h: utsMix(n.h ^ uint64(i+1)*0xd1b54a32d192ed03), depth: n.depth + 1})
	}
	return buf
}

// utsCount is the naive recursive DFS: the tree's W and goal count.
func utsCount(t utsTree, n utsNode) (w, goals int64) {
	w = 1
	if t.Goal(n) {
		goals = 1
	}
	for _, c := range t.Expand(n, nil) {
		cw, cg := utsCount(t, c)
		w, goals = w+cw, goals+cg
	}
	return w, goals
}

// engineRun runs the engine on d under label and splitter and reports what
// the reference machine reproduces.
func engineRun[S any](t *testing.T, d search.Domain[S], label, split string, p int) refResult {
	t.Helper()
	sch, err := simd.ParseScheme[S](label)
	if err != nil {
		t.Fatal(err)
	}
	switch split {
	case "top":
		sch.Splitter = stack.TopNode[S]{}
	case "half":
		sch.Splitter = stack.HalfStack[S]{}
	}
	tr := &trace.Trace{CaptureDonors: true}
	st, err := simd.RunContext[S](context.Background(), d, sch, simd.Options{P: p, Workers: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	res := refResult{Cycles: st.Cycles, Phases: st.LBPhases, Transfers: st.Transfers, Peak: st.PeakStack, W: st.W, Goals: st.Goals}
	for _, s := range tr.Samples {
		res.Active = append(res.Active, s.Active)
	}
	for _, e := range tr.Events {
		res.Events = append(res.Events, refPhase{Cycle: e.Cycle, Transfers: e.Transfers, Cost: e.Cost, Donors: e.Donors})
	}
	return res
}

// refCheck runs the reference machine and the engine on d and requires the
// same cycles, W, goals, phases, transfers, peak stack, per-cycle active
// counts and per-phase donor lists.
func refCheck[S any](t *testing.T, d search.Domain[S], label, split string, p int) refResult {
	t.Helper()
	c := simd.CM2Costs()
	ref := &refMachine[S]{
		d: d, p: p, sc: parseRefScheme(label, split), ucalc: c.NodeExpansion,
		cost: func(rounds, maxNodes int) time.Duration {
			return c.PhaseCost(topology.CM2{}, p, rounds) + c.MessageCost(topology.CM2{}, p, maxNodes)
		},
	}
	want := ref.run()
	got := engineRun(t, d, label, split, p)
	if got.Cycles != want.Cycles || got.W != want.W || got.Goals != want.Goals || got.Phases != want.Phases ||
		got.Transfers != want.Transfers || got.Peak != want.Peak {
		t.Fatalf("engine: cycles %d W %d goals %d Nlb %d transfers %d peak %d; reference: %d %d %d %d %d %d",
			got.Cycles, got.W, got.Goals, got.Phases, got.Transfers, got.Peak,
			want.Cycles, want.W, want.Goals, want.Phases, want.Transfers, want.Peak)
	}
	if !reflect.DeepEqual(got.Active, want.Active) {
		t.Fatalf("per-cycle active counts differ from the reference")
	}
	for i := range want.Events {
		if !reflect.DeepEqual(got.Events[i], want.Events[i]) {
			t.Fatalf("phase %d: engine %+v, reference %+v", i, got.Events[i], want.Events[i])
		}
	}
	return want
}

// refLabels are Table 1's six schemes, with S^0.90 as the static one.
var refLabels = []string{"nGP-S0.90", "nGP-DP", "nGP-DK", "GP-S0.90", "GP-DP", "GP-DK"}

// TestReferenceMachine holds the engine to the reference machine on every
// Table 1 scheme × splitter × P ∈ {8, 64, 256}, on a synthetic tree and on
// a UTS-style tree whose W and goal count the naive recursive DFS checks.
func TestReferenceMachine(t *testing.T) {
	uts := utsTree{b0: 1500, seed: 7}
	utsW, utsGoals := utsCount(uts, uts.Root())
	syn := synthetic.New(20000, 0x5EED)
	for _, p := range []int{8, 64, 256} {
		for _, label := range refLabels {
			for _, split := range []string{"bottom", "top", "half"} {
				t.Run(fmt.Sprintf("P=%d/%s/%s", p, label, split), func(t *testing.T) {
					t.Parallel()
					if got := refCheck[synthetic.Node](t, syn, label, split, p); got.W != syn.W {
						t.Fatalf("synthetic: reference W %d, tree has %d", got.W, syn.W)
					}
					if got := refCheck[utsNode](t, uts, label, split, p); got.W != utsW || got.Goals != utsGoals {
						t.Fatalf("uts: reference W %d goals %d, recursive DFS %d %d", got.W, got.Goals, utsW, utsGoals)
					}
				})
			}
		}
	}
}
