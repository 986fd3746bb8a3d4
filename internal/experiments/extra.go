package experiments

import (
	"fmt"
	"slices"
	"time"

	"simdtree/internal/baselines"
	"simdtree/internal/match"
	"simdtree/internal/metrics"
	"simdtree/internal/mimd"
	"simdtree/internal/puzzle"
	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
	"simdtree/internal/topology"
	"simdtree/internal/trigger"
)

// runsTable is a table of one run per row: the row's key, Nexpand, Nlb,
// the extra columns, then E.
func runsTable(name, title string, key Column, extra ...Column) Table {
	return Table{
		Name:    name,
		Title:   title,
		Columns: slices.Concat([]Column{key, {"nexpand", "Nexpand", ""}, {"nlb", "Nlb", ""}}, extra, []Column{{"e", "E", "%.3f"}}),
	}
}

// addRun appends a runsTable row.
func (t *Table) addRun(key any, st metrics.Stats, extra ...any) {
	t.Rows = append(t.Rows, slices.Concat([]any{key, st.Cycles, st.LBPhases}, extra, []any{st.Efficiency()}))
}

// AblationSplitters compares the alpha-splitting mechanisms under GP-S^x:
// the paper's bottom-node split, the half-stack split, and the
// deliberately poor top-node split (Section 3's claim that efficiency
// drops as the splitter degrades).
func AblationSplitters(w int64, p int, x float64, workers int) (Table, error) {
	t := runsTable("ablation_splitters", fmt.Sprintf("# Ablation: splitter quality (GP-S%.2f, W=%d, P=%d)", x, w, p),
		Column{"splitter", "splitter", ""})
	tree := synthetic.New(w, 0xAB1)
	for _, split := range []stack.Splitter[synthetic.Node]{
		stack.BottomNode[synthetic.Node]{},
		stack.HalfStack[synthetic.Node]{},
		stack.TopNode[synthetic.Node]{},
	} {
		sch, err := simd.StaticScheme[synthetic.Node]("GP", x)
		if err != nil {
			return t, err
		}
		sch.Splitter = split
		st, err := simd.Run[synthetic.Node](tree, sch, simd.Options{P: p, Workers: workers})
		if err != nil {
			return t, err
		}
		t.addRun(split.Name(), st)
	}
	return t, nil
}

// AblationInit compares the dynamic schemes with and without the S^0.85
// initial-distribution phase of Section 7.
func AblationInit(w int64, p, workers int) (Table, error) {
	t := runsTable("ablation_init", fmt.Sprintf("# Ablation: S^0.85 initial distribution (W=%d, P=%d)", w, p),
		Column{"variant", "variant", ""})
	tree := synthetic.New(w, 0xAB2)
	for _, label := range []string{"GP-DP", "GP-DK"} {
		for _, init := range []float64{0, -1} { // 0 selects the paper default; -1 disables
			st, err := runCM2[synthetic.Node](tree, label, simd.Options{P: p, Workers: workers, InitThreshold: init}, 1)
			if err != nil {
				return t, err
			}
			key := label + "+init"
			if init < 0 {
				key = label + "-init"
			}
			t.addRun(key, st)
		}
	}
	return t, nil
}

// AblationTransfers compares multiple vs single work transfers per phase
// for D^P triggering (the paper requires multiple; Section 2.3).
func AblationTransfers(w int64, p, workers int) (Table, error) {
	t := runsTable("ablation_transfers", fmt.Sprintf("# Ablation: D^P transfer policy (W=%d, P=%d)", w, p),
		Column{"variant", "variant", ""}, Column{"transfers", "transfers", ""})
	tree := synthetic.New(w, 0xAB3)
	for _, multi := range []bool{true, false} {
		// Built by hand: NewScheme would force multiple transfers for D^P.
		sch := simd.Scheme[synthetic.Node]{
			Label:    "GP-DP",
			Trigger:  trigger.DP{},
			Balancer: &simd.MatchBalancer[synthetic.Node]{Matcher: match.NewGP(), Multi: multi},
			Splitter: stack.BottomNode[synthetic.Node]{},
			WantInit: true,
		}
		st, err := simd.Run[synthetic.Node](tree, sch, simd.Options{P: p, Workers: workers, InitThreshold: 0.85})
		if err != nil {
			return t, err
		}
		key := "GP-DP-single"
		if multi {
			key = "GP-DP-multi"
		}
		t.addRun(key, st, st.Transfers)
	}
	return t, nil
}

// AblationTopology runs GP-S^x over the topology cost models of Section
// 3.3, showing how communication cost moves efficiency (Table 6's
// architecture dependence, measured).
func AblationTopology(w int64, p int, x float64, workers int) (Table, error) {
	t := runsTable("ablation_topology", fmt.Sprintf("# Ablation: topology cost model (GP-S%.2f, W=%d, P=%d)", x, w, p),
		Column{"topology", "topology", ""})
	tree := synthetic.New(w, 0xAB4)
	for _, name := range []string{"crossbar", "cm2", "hypercube", "mesh"} {
		net, err := topology.ByName(name)
		if err != nil {
			return t, err
		}
		sch, err := simd.StaticScheme[synthetic.Node]("GP", x)
		if err != nil {
			return t, err
		}
		st, err := simd.Run[synthetic.Node](tree, sch, simd.Options{P: p, Workers: workers, Topology: net})
		if err != nil {
			return t, err
		}
		t.addRun(name, st)
	}
	return t, nil
}

// AblationMessageSize relaxes the paper's constant-message-size
// assumption (Section 3.1): with a per-node transfer cost, the bottom-node
// splitter's one-node messages stay cheap while the half-stack splitter's
// bulk messages get expensive — the tradeoff between balance quality and
// message volume becomes visible.
func AblationMessageSize(w int64, p, workers int, perNodeMs float64) (Table, error) {
	t := runsTable("ablation_message_size", fmt.Sprintf("# Ablation: message-size-dependent transfer cost (GP-DK, W=%d, P=%d)", w, p),
		Column{"variant", "variant", ""}, Column{"max_transfer", "max transfer", ""})
	tree := synthetic.New(w, 0xAB7)
	for _, split := range []stack.Splitter[synthetic.Node]{
		stack.BottomNode[synthetic.Node]{},
		stack.HalfStack[synthetic.Node]{},
	} {
		for _, perNode := range []float64{0, perNodeMs} {
			sch, err := simd.ParseScheme[synthetic.Node]("GP-DK")
			if err != nil {
				return t, err
			}
			sch.Splitter = split
			opts := simd.Options{P: p, Workers: workers, Costs: simd.CM2Costs()}
			opts.Costs.PerNodeTransfer = time.Duration(perNode * float64(time.Millisecond))
			st, err := simd.Run[synthetic.Node](tree, sch, opts)
			if err != nil {
				return t, err
			}
			t.addRun(fmt.Sprintf("%s@%.1fms/node", split.Name(), perNode), st, st.MaxTransfer)
		}
	}
	return t, nil
}

// AblationDKGamma sweeps the aggressiveness factor of the generalised
// D^K trigger; gamma = 1 is the paper's choice.
func AblationDKGamma(w int64, p, workers int) (Table, error) {
	t := runsTable("ablation_dk_gamma", fmt.Sprintf("# Ablation: D^K gamma sweep (GP matching, W=%d, P=%d)", w, p),
		Column{"gamma", "gamma", "%.2f"})
	tree := synthetic.New(w, 0xAB8)
	for _, g := range []float64{0.25, 0.5, 1, 2, 4} {
		sch, err := simd.NewScheme[synthetic.Node]("GP", trigger.DKGamma{Gamma: g}, false)
		if err != nil {
			return t, err
		}
		sch.WantInit = true
		st, err := simd.Run[synthetic.Node](tree, sch, simd.Options{P: p, Workers: workers})
		if err != nil {
			return t, err
		}
		t.addRun(g, st)
	}
	return t, nil
}

// AblationHeuristic compares the Manhattan-distance bound against the
// Manhattan+linear-conflict bound on the same 15-puzzle instance under
// GP-DK: the stronger heuristic shrinks the problem size W.  Note the
// virtual cost model charges one Ucalc per expansion regardless of
// heuristic, matching the paper's accounting; the tradeoff a real machine
// would see between bound strength and per-node cost is outside the
// virtual clock.
func AblationHeuristic(scrambleSeed uint64, steps, p, workers int) (Table, error) {
	t := Table{
		Name:  "ablation_heuristic",
		Title: fmt.Sprintf("# Ablation: heuristic strength (GP-DK, P=%d, scramble %d/%d)", p, scrambleSeed, steps),
		Columns: []Column{{"heuristic", "heuristic", ""}, {"w", "W", ""},
			{"nexpand", "Nexpand", ""}, {"nlb", "Nlb", ""}, {"e", "E", "%.3f"}},
	}
	inst := puzzle.Scramble(scrambleSeed, steps)
	for _, v := range []struct {
		name string
		dom  search.CostDomain[puzzle.Node]
	}{
		{"manhattan", puzzle.NewDomain(inst)},
		{"manhattan+lc", puzzle.NewDomainLC(inst)},
	} {
		bound, w := search.FinalIterationBound(v.dom)
		st, err := runCM2[puzzle.Node](search.NewBounded(v.dom, bound), "GP-DK", simd.Options{P: p, Workers: workers}, 1)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []any{v.name, w, st.Cycles, st.LBPhases, st.Efficiency()})
	}
	return t, nil
}

// BaselineComparison runs the Section 8 baseline schemes next to GP-DK on
// the same workload.
func BaselineComparison(w int64, p, workers int) (Table, error) {
	t := runsTable("baselines", fmt.Sprintf("# Section 8 baselines vs GP-DK (W=%d, P=%d)", w, p),
		Column{"scheme", "scheme", ""}, Column{"transfers", "transfers", ""})
	tree := synthetic.New(w, 0xAB5)
	gpdk, err := simd.ParseScheme[synthetic.Node]("GP-DK")
	if err != nil {
		return t, err
	}
	for _, sch := range append(baselines.All[synthetic.Node](), gpdk) {
		st, err := simd.Run[synthetic.Node](tree, sch, simd.Options{P: p, Workers: workers})
		if err != nil {
			return t, err
		}
		t.addRun(sch.Label, st, st.Transfers)
	}
	return t, nil
}

// MIMDComparison backs the paper's Section 9 claim that the SIMD schemes
// scale comparably to MIMD work stealing: GP-DK on the SIMD machine vs
// GRR/ARR/RP stealing, identical workload and cost constants.
func MIMDComparison(w int64, p, workers int, seed uint64) (Table, error) {
	t := Table{
		Name:    "mimd",
		Title:   fmt.Sprintf("# SIMD vs MIMD (W=%d, P=%d)", w, p),
		Columns: []Column{{"scheme", "scheme", ""}, {"e", "E", "%.3f"}},
	}
	tree := synthetic.New(w, 0xAB6)
	st, err := runCM2[synthetic.Node](tree, "GP-DK", simd.Options{P: p, Workers: workers}, 1)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []any{"SIMD GP-DK", st.Efficiency()})
	for _, pol := range []mimd.Policy{mimd.GRR, mimd.ARR, mimd.RP} {
		// Same network cost model as the SIMD run: the CM-2's
		// constant-cost router, so neither side pays for routing the
		// other is spared.
		ms, err := mimd.Run[synthetic.Node](tree, mimd.Options{
			P: p, Policy: pol, Seed: seed, Topology: topology.CM2{},
		})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []any{"MIMD " + pol.String(), ms.Efficiency()})
	}
	return t, nil
}
