// Command experiments regenerates the tables and figures of the paper's
// evaluation.  Each subcommand maps to one table or figure (see DESIGN.md
// for the per-experiment index):
//
//	experiments [flags] table2|table3|table4|table5|table6
//	experiments [flags] fig1|fig3|fig4|fig7|fig8
//	experiments [flags] ablations|baselines|mimd|anomalies|variance
//	experiments [flags] report|all
//
// Every experiment's tables go to stdout; all runs every experiment in
// that order and report writes the paper-vs-measured markdown report.
//
// Flags:
//
//	-scale full|quick|tiny   experiment size (default quick; full mirrors
//	                         the paper's 8192-processor CM-2 runs)
//	-domain puzzle|synthetic workload for the table experiments (default
//	                         puzzle, as in the paper; synthetic is faster
//	                         and hits the problem-size tiers exactly)
//	-csv DIR                 additionally write each table as DIR/<name>.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"simdtree/internal/experiments"
	"simdtree/internal/puzzle"
	"simdtree/internal/synthetic"
)

var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "quick", "experiment scale: full, quick or tiny")
	domain := fs.String("domain", "puzzle", "table workload domain: puzzle or synthetic")
	csvDir := fs.String("csv", "", "directory for machine-readable CSV copies of the results")
	if err := fs.Parse(args); err != nil {
		return errUsage
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
	out := output{stdout: stdout, csvDir: *csvDir}
	switch *domain {
	case "puzzle":
		return dispatch(fs.Args(), scale, out, stderr, sync.OnceValue(func() *experiments.Suite[puzzle.Node] {
			fmt.Fprintln(stderr, "# calibrating 15-puzzle instances (serial searches)...")
			return &experiments.Suite[puzzle.Node]{Workloads: experiments.PuzzleWorkloads(scale.Tiers, stderr), P: scale.P, Workers: scale.Workers}
		}))
	case "synthetic":
		return dispatch(fs.Args(), scale, out, stderr, sync.OnceValue(func() *experiments.Suite[synthetic.Node] {
			return &experiments.Suite[synthetic.Node]{Workloads: experiments.SyntheticWorkloads(scale.Tiers), P: scale.P, Workers: scale.Workers}
		}))
	}
	return fmt.Errorf("unknown domain %q", *domain)
}

// output is where tables go: stdout, and DIR/<name>.csv when a CSV
// directory is set.
type output struct {
	stdout io.Writer
	csvDir string
}

func (o output) write(tables []experiments.Table) error {
	for _, t := range tables {
		if err := experiments.WriteText(o.stdout, t); err != nil {
			return err
		}
		if o.csvDir == "" || t.Name == "" {
			continue
		}
		f, err := os.Create(filepath.Join(o.csvDir, t.Name+".csv"))
		if err != nil {
			return err
		}
		err = experiments.WriteCSV(f, t)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// experiment is one subcommand: its name and what it runs.
type experiment struct {
	name string
	run  func() ([]experiments.Table, error)
}

// dispatch runs the subcommand in args.  suite builds the table
// experiments' suite on first use, so only they pay for a puzzle
// calibration.
func dispatch[S any](args []string, scale experiments.Scale, out output, stderr io.Writer, suite func() *experiments.Suite[S]) error {
	list := experimentList(scale, suite)
	if len(args) == 1 && args[0] == "report" {
		return experiments.WriteReport(suite(), scale, out.stdout)
	}
	ran := false
	for _, e := range list {
		if len(args) != 1 || (args[0] != "all" && args[0] != e.name) {
			continue
		}
		ran = true
		tables, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if err := out.write(tables); err != nil {
			return err
		}
	}
	if !ran {
		var names []string
		for _, e := range list {
			names = append(names, e.name)
		}
		fmt.Fprintf(stderr, "usage: experiments [-scale S] [-domain D] [-csv DIR] <%s|report|all>\n", strings.Join(names, "|"))
		return errUsage
	}
	return nil
}

// experimentList is every experiment, in the order all runs them.
func experimentList[S any](scale experiments.Scale, suite func() *experiments.Suite[S]) []experiment {
	mid := scale.Tiers[len(scale.Tiers)/2]
	table2 := sync.OnceValues(func() (experiments.Table, error) { return suite().Table2(experiments.StaticThresholds) })
	table5W := func() experiments.Workload[S] { return experiments.ClosestTier(suite().Workloads, scale.Table5W) }
	grid := func(name string, labels []string) func() ([]experiments.Table, error) {
		return func() ([]experiments.Table, error) {
			return experiments.IsoGrid(name, labels, scale.GridPs, scale.GridWs, scale.Workers, experiments.IsoLevels)
		}
	}
	return []experiment{
		{"table2", func() ([]experiments.Table, error) { return one(table2()) }},
		{"table3", func() ([]experiments.Table, error) { return one(suite().Table3()) }},
		{"table4", func() ([]experiments.Table, error) { return one(suite().Table4()) }},
		{"table5", func() ([]experiments.Table, error) { return one(suite().Table5(table5W())) }},
		{"table6", experiments.Table6},
		{"fig1", func() ([]experiments.Table, error) {
			var tables []experiments.Table
			for _, label := range []string{"GP-DP", "GP-DK"} {
				ts, err := suite().Fig1(label, suite().Workloads[0])
				if err != nil {
					return nil, err
				}
				tables = append(tables, ts...)
			}
			return tables, nil
		}},
		{"fig3", func() ([]experiments.Table, error) {
			// Figure 3's CSV is Table 2's rows, under its own name.
			t2, err := table2()
			t2.Name = "fig3"
			return []experiments.Table{t2, experiments.Fig3(t2)}, err
		}},
		{"fig4", grid("fig4", experiments.Fig4Labels())},
		{"fig7", grid("fig7", experiments.Fig7Labels())},
		{"fig8", func() ([]experiments.Table, error) { return one(suite().Fig8(table5W())) }},
		{"ablations", func() ([]experiments.Table, error) {
			steps := 36
			if scale.Name == "full" {
				steps = 60
			}
			return collect(
				func() (experiments.Table, error) {
					return experiments.AblationSplitters(mid, scale.P, 0.85, scale.Workers)
				},
				func() (experiments.Table, error) { return experiments.AblationInit(mid, scale.P, scale.Workers) },
				func() (experiments.Table, error) { return experiments.AblationTransfers(mid, scale.P, scale.Workers) },
				func() (experiments.Table, error) {
					return experiments.AblationTopology(mid, scale.P, 0.85, scale.Workers)
				},
				func() (experiments.Table, error) {
					return experiments.AblationMessageSize(mid, scale.P, scale.Workers, 1.0)
				},
				func() (experiments.Table, error) { return experiments.AblationDKGamma(mid, scale.P, scale.Workers) },
				func() (experiments.Table, error) {
					return experiments.AblationHeuristic(2023, steps, scale.P, scale.Workers)
				},
			)
		}},
		{"baselines", func() ([]experiments.Table, error) {
			return one(experiments.BaselineComparison(mid, scale.P, scale.Workers))
		}},
		{"mimd", func() ([]experiments.Table, error) {
			return one(experiments.MIMDComparison(scale.Tiers[0], scale.P, scale.Workers, 1))
		}},
		{"anomalies", func() ([]experiments.Table, error) {
			return one(experiments.Anomalies(22, []uint64{1, 2, 3}, []int{16, 64, 256}, scale.Workers))
		}},
		{"variance", func() ([]experiments.Table, error) {
			return one(experiments.Variance(mid, scale.P, scale.Workers, 5, []string{"GP-DK", "GP-S0.90", "nGP-S0.90"}))
		}},
	}
}

func one(t experiments.Table, err error) ([]experiments.Table, error) {
	return []experiments.Table{t}, err
}

// collect runs experiments in order, stopping at the first error.
func collect(runs ...func() (experiments.Table, error)) ([]experiments.Table, error) {
	var tables []experiments.Table
	for _, run := range runs {
		t, err := run()
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}
