// Command experiments regenerates the tables and figures of the paper's
// evaluation.  Each subcommand maps to one table or figure (see DESIGN.md
// for the per-experiment index):
//
//	experiments [flags] table2|table3|table4|table5|table6
//	experiments [flags] fig1|fig3|fig4|fig7|fig8
//	experiments [flags] ablations|baselines|mimd|anomalies|variance
//	experiments [flags] report|all
//
// Flags:
//
//	-scale full|quick|tiny   experiment size (default quick; full mirrors
//	                         the paper's 8192-processor CM-2 runs)
//	-domain puzzle|synthetic workload for the table experiments (default
//	                         puzzle, as in the paper; synthetic is faster
//	                         and hits the problem-size tiers exactly)
//	-csv DIR                 additionally write machine-readable CSV files
//	                         into DIR (one per experiment)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"simdtree/internal/experiments"
	"simdtree/internal/puzzle"
	"simdtree/internal/synthetic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	scaleName := flag.String("scale", "quick", "experiment scale: full, quick or tiny")
	domain := flag.String("domain", "puzzle", "table workload domain: puzzle or synthetic")
	csvDir := flag.String("csv", "", "directory for machine-readable CSV copies of the results")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: experiments [-scale S] [-domain D] [-csv DIR] <table2|table3|table4|table5|table6|fig1|fig3|fig4|fig7|fig8|ablations|baselines|mimd|anomalies|variance|report|all>")
		os.Exit(2)
	}
	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	cmd := flag.Arg(0)
	out := os.Stdout

	switch *domain {
	case "puzzle":
		return dispatch(newPuzzleSuite(scale, cmd, out), scale, cmd, out, *csvDir)
	case "synthetic":
		return dispatch(newSyntheticSuite(scale, out), scale, cmd, out, *csvDir)
	}
	return fmt.Errorf("unknown domain %q", *domain)
}

// tableCommands are the subcommands that need tier workloads (and hence a
// potentially expensive instance search for the puzzle domain).
var tableCommands = map[string]bool{
	"table2": true, "table3": true, "table4": true, "table5": true,
	"fig1": true, "fig3": true, "fig8": true, "all": true, "report": true,
}

func newPuzzleSuite(scale experiments.Scale, cmd string, out io.Writer) *experiments.Suite[puzzle.Node] {
	s := &experiments.Suite[puzzle.Node]{P: scale.P, Workers: scale.Workers, Out: out}
	if tableCommands[cmd] {
		fmt.Fprintln(os.Stderr, "# calibrating 15-puzzle instances (serial searches)...")
		s.Workloads = experiments.PuzzleWorkloads(scale.Tiers, os.Stderr)
	}
	return s
}

func newSyntheticSuite(scale experiments.Scale, out io.Writer) *experiments.Suite[synthetic.Node] {
	return &experiments.Suite[synthetic.Node]{
		Workloads: experiments.SyntheticWorkloads(scale.Tiers),
		P:         scale.P,
		Workers:   scale.Workers,
		Out:       out,
	}
}

// table5Workload picks the Table 5 problem instance for a suite: the tier
// closest to the scale's Table5W target.
func table5Workload[S any](s *experiments.Suite[S], scale experiments.Scale) experiments.Workload[S] {
	best := s.Workloads[0]
	bestD := diff(best.W, scale.Table5W)
	for _, wl := range s.Workloads[1:] {
		if d := diff(wl.W, scale.Table5W); d < bestD {
			best, bestD = wl, d
		}
	}
	return best
}

func diff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

var staticThresholds = []float64{0.50, 0.60, 0.70, 0.80, 0.90}

var isoLevels = []float64{0.50, 0.65, 0.75, 0.85}

// saveCSV writes one experiment's CSV file when a CSV directory is set.
func saveCSV(dir, name string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}

func dispatch[S any](s *experiments.Suite[S], scale experiments.Scale, cmd string, out io.Writer, csvDir string) error {
	switch cmd {
	case "table2":
		rows, err := s.Table2(staticThresholds)
		if err != nil {
			return err
		}
		return saveCSV(csvDir, "table2.csv", func(w io.Writer) error { return experiments.Table2CSV(rows, w) })
	case "table3":
		rows, err := s.Table3()
		if err != nil {
			return err
		}
		return saveCSV(csvDir, "table3.csv", func(w io.Writer) error { return experiments.Table3CSV(rows, w) })
	case "table4":
		rows, err := s.Table4()
		if err != nil {
			return err
		}
		return saveCSV(csvDir, "table4.csv", func(w io.Writer) error { return experiments.Table4CSV(rows, w) })
	case "table5":
		rows, err := s.Table5(table5Workload(s, scale))
		if err != nil {
			return err
		}
		return saveCSV(csvDir, "table5.csv", func(w io.Writer) error { return experiments.Table5CSV(rows, w) })
	case "table6":
		return experiments.Table6(out)
	case "fig1":
		for _, label := range []string{"GP-DP", "GP-DK"} {
			tr, err := s.Fig1(label, s.Workloads[0])
			if err != nil {
				return err
			}
			name := fmt.Sprintf("fig1_%s.csv", label)
			if err := saveCSV(csvDir, name, func(w io.Writer) error { return experiments.TraceCSV(tr, w) }); err != nil {
				return err
			}
		}
		return nil
	case "fig3":
		rows, err := s.Table2(staticThresholds)
		if err != nil {
			return err
		}
		if err := experiments.Fig3(rows, out); err != nil {
			return err
		}
		return saveCSV(csvDir, "fig3.csv", func(w io.Writer) error { return experiments.Table2CSV(rows, w) })
	case "fig4":
		res, err := experiments.IsoGrid(experiments.Fig4Labels(), scale.GridPs, scale.GridWs, scale.Workers, isoLevels, out)
		if err != nil {
			return err
		}
		return saveCSV(csvDir, "fig4.csv", func(w io.Writer) error { return experiments.GridCSV(res, w) })
	case "fig7":
		res, err := experiments.IsoGrid(experiments.Fig7Labels(), scale.GridPs, scale.GridWs, scale.Workers, isoLevels, out)
		if err != nil {
			return err
		}
		return saveCSV(csvDir, "fig7.csv", func(w io.Writer) error { return experiments.GridCSV(res, w) })
	case "fig8":
		_, err := s.Fig8(table5Workload(s, scale))
		return err
	case "ablations":
		w := scale.Tiers[len(scale.Tiers)/2]
		if _, err := experiments.AblationSplitters(w, scale.P, 0.85, scale.Workers, out); err != nil {
			return err
		}
		if _, err := experiments.AblationInit(w, scale.P, scale.Workers, out); err != nil {
			return err
		}
		if _, err := experiments.AblationTransfers(w, scale.P, scale.Workers, out); err != nil {
			return err
		}
		if _, err := experiments.AblationTopology(w, scale.P, 0.85, scale.Workers, out); err != nil {
			return err
		}
		if _, err := experiments.AblationMessageSize(w, scale.P, scale.Workers, 1.0, out); err != nil {
			return err
		}
		if _, err := experiments.AblationDKGamma(w, scale.P, scale.Workers, out); err != nil {
			return err
		}
		steps := 36
		if scale.Name == "full" {
			steps = 60
		}
		_, err := experiments.AblationHeuristic(2023, steps, scale.P, scale.Workers, out)
		return err
	case "baselines":
		_, err := experiments.BaselineComparison(scale.Tiers[len(scale.Tiers)/2], scale.P, scale.Workers, out)
		return err
	case "mimd":
		_, err := experiments.MIMDComparison(scale.Tiers[0], scale.P, scale.Workers, 1, out)
		return err
	case "anomalies":
		rows, err := experiments.Anomalies(22, []uint64{1, 2, 3}, []int{16, 64, 256}, scale.Workers, out)
		if err != nil {
			return err
		}
		return saveCSV(csvDir, "anomalies.csv", func(w io.Writer) error { return experiments.AnomalyCSV(rows, w) })
	case "variance":
		_, err := experiments.Variance(scale.Tiers[len(scale.Tiers)/2], scale.P, scale.Workers, 5,
			[]string{"GP-DK", "GP-S0.90", "nGP-S0.90"}, out)
		return err
	case "report":
		return experiments.WriteReport(s, scale, out)
	case "all":
		rows, err := s.Table2(staticThresholds)
		if err != nil {
			return err
		}
		if err := saveCSV(csvDir, "table2.csv", func(w io.Writer) error { return experiments.Table2CSV(rows, w) }); err != nil {
			return err
		}
		t3, err := s.Table3()
		if err != nil {
			return err
		}
		if err := saveCSV(csvDir, "table3.csv", func(w io.Writer) error { return experiments.Table3CSV(t3, w) }); err != nil {
			return err
		}
		t4, err := s.Table4()
		if err != nil {
			return err
		}
		if err := saveCSV(csvDir, "table4.csv", func(w io.Writer) error { return experiments.Table4CSV(t4, w) }); err != nil {
			return err
		}
		t5, err := s.Table5(table5Workload(s, scale))
		if err != nil {
			return err
		}
		if err := saveCSV(csvDir, "table5.csv", func(w io.Writer) error { return experiments.Table5CSV(t5, w) }); err != nil {
			return err
		}
		if err := experiments.Table6(out); err != nil {
			return err
		}
		if err := experiments.Fig3(rows, out); err != nil {
			return err
		}
		g4, err := experiments.IsoGrid(experiments.Fig4Labels(), scale.GridPs, scale.GridWs, scale.Workers, isoLevels, out)
		if err != nil {
			return err
		}
		if err := saveCSV(csvDir, "fig4.csv", func(w io.Writer) error { return experiments.GridCSV(g4, w) }); err != nil {
			return err
		}
		g7, err := experiments.IsoGrid(experiments.Fig7Labels(), scale.GridPs, scale.GridWs, scale.Workers, isoLevels, out)
		if err != nil {
			return err
		}
		if err := saveCSV(csvDir, "fig7.csv", func(w io.Writer) error { return experiments.GridCSV(g7, w) }); err != nil {
			return err
		}
		if _, err := s.Fig8(table5Workload(s, scale)); err != nil {
			return err
		}
		if _, err := experiments.BaselineComparison(scale.Tiers[len(scale.Tiers)/2], scale.P, scale.Workers, out); err != nil {
			return err
		}
		if _, err := experiments.MIMDComparison(scale.Tiers[0], scale.P, scale.Workers, 1, out); err != nil {
			return err
		}
		an, err := experiments.Anomalies(22, []uint64{1, 2, 3}, []int{16, 64, 256}, scale.Workers, out)
		if err != nil {
			return err
		}
		return saveCSV(csvDir, "anomalies.csv", func(w io.Writer) error { return experiments.AnomalyCSV(an, w) })
	}
	return fmt.Errorf("unknown subcommand %q", cmd)
}
