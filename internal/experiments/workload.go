// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables 2-6, Figures 1, 3, 4, 7, 8) plus the ablations and
// the MIMD comparison described in DESIGN.md.  Each experiment is a
// function that runs the required simulations and returns its results as
// a Table, which writes nothing itself: WriteText, WriteCSV and
// WriteMarkdown print any Table as aligned text, CSV or a report table.
// cmd/experiments lists the experiments as subcommands and the
// repository's top-level benchmarks run them at reduced scale.
package experiments

import (
	"fmt"
	"io"
	"runtime"

	"simdtree/internal/puzzle"
	"simdtree/internal/search"
	"simdtree/internal/synthetic"
)

// Workload is a problem instance of a known size W.
type Workload[S any] struct {
	Name   string
	W      int64 // serial node count, measured
	Domain search.Domain[S]
}

// Scale selects experiment sizes.  Full reproduces the paper's setup
// (P = 8192, problem sizes around 1M..16M nodes); Quick shrinks both by
// roughly two orders of magnitude for interactive runs; Tiny drives unit
// tests and benchmarks.
type Scale struct {
	Name    string
	P       int     // machine size for the table experiments
	Tiers   []int64 // target problem sizes W
	Table5W int64   // problem size for the load-balancing-cost study
	GridPs  []int   // machine sizes for the isoefficiency grids
	GridWs  []int64 // problem sizes for the isoefficiency grids
	Workers int     // goroutines per simulated cycle
}

// Predefined scales.
var (
	// FullScale mirrors the paper: 8192 CM-2 processors, problem sizes
	// 0.94M / 3.1M / 6.1M / 16.1M, a 2.1M-node Table 5 instance, and an
	// isoefficiency grid reaching half a million P*logP.
	FullScale = Scale{
		Name:    "full",
		P:       8192,
		Tiers:   []int64{940_000, 3_100_000, 6_100_000, 16_100_000},
		Table5W: 2_070_000,
		GridPs:  []int{1024, 2048, 4096, 8192, 16384},
		GridWs:  []int64{250_000, 500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000, 16_000_000, 32_000_000, 64_000_000},
		Workers: runtime.NumCPU(),
	}
	// QuickScale divides the machine by 32 and the problems by ~64.
	QuickScale = Scale{
		Name:    "quick",
		P:       256,
		Tiers:   []int64{15_000, 48_000, 95_000, 250_000},
		Table5W: 32_000,
		GridPs:  []int{64, 128, 256, 512, 1024},
		GridWs:  []int64{4_000, 8_000, 16_000, 32_000, 64_000, 128_000, 256_000, 512_000},
		Workers: runtime.NumCPU(),
	}
	// TinyScale keeps unit tests and benchmarks fast.
	TinyScale = Scale{
		Name:    "tiny",
		P:       64,
		Tiers:   []int64{2_000, 6_000},
		Table5W: 4_000,
		GridPs:  []int{16, 32, 64, 128},
		GridWs:  []int64{1_000, 2_000, 4_000, 8_000, 16_000, 32_000},
		Workers: runtime.NumCPU(),
	}
)

// ScaleByName returns the named scale ("full", "quick" or "tiny").
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "full":
		return FullScale, nil
	case "quick":
		return QuickScale, nil
	case "tiny":
		return TinyScale, nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q", name)
}

// SyntheticWorkloads builds synthetic-tree workloads hitting the targets
// exactly (the tree construction guarantees the node count).
func SyntheticWorkloads(targets []int64) []Workload[synthetic.Node] {
	out := make([]Workload[synthetic.Node], len(targets))
	for i, w := range targets {
		tree := synthetic.New(w, 0xC0FFEE+uint64(i))
		out[i] = Workload[synthetic.Node]{
			Name:   fmt.Sprintf("synthetic-%d", w),
			W:      w,
			Domain: tree,
		}
	}
	return out
}

// PuzzleWorkloads finds, for every target size, a scrambled 15-puzzle
// instance and an IDA* cost bound whose exhaustive bounded search expands
// close to the target number of nodes (within [0.5, 2]x), the way the
// paper's experiments pinned their four problem sizes.  The search over
// (seed, bound) is deterministic; progress is reported on log when
// non-nil because measuring W requires serial searches of comparable
// size.
func PuzzleWorkloads(targets []int64, log io.Writer) []Workload[puzzle.Node] {
	out := make([]Workload[puzzle.Node], 0, len(targets))
	used := map[string]bool{}
	for i, target := range targets {
		name := fmt.Sprintf("puzzle-tier%d", i+1)
		// If no instance lands in the window, the closest unused one is
		// returned instead; experiments report measured W on every row,
		// so a best-effort tier stays honest.
		wl, _ := findPuzzleWorkload(target, 60, used)
		wl.Name = name
		if log != nil {
			fmt.Fprintf(log, "# %s: target W=%d, instance W=%d\n", name, target, wl.W)
		}
		out = append(out, wl)
	}
	return out
}

// findPuzzleWorkload scans scramble seeds for an instance with a cost
// bound whose bounded search size lands near target, skipping instances
// already claimed by another tier (the used set, keyed by seed+bound).
// Acceptance is asymmetric — [0.6, 1.7]x — so neighbouring tiers spaced
// ~2x apart cannot both claim the same search size.
func findPuzzleWorkload(target int64, maxSeeds int, used map[string]bool) (Workload[puzzle.Node], bool) {
	lo := target * 6 / 10
	hi := target * 17 / 10
	best := Workload[puzzle.Node]{}
	bestKey := ""
	bestDist := int64(-1)
	for seed := uint64(1); seed <= uint64(maxSeeds); seed++ {
		inst := puzzle.Scramble(seed*7919, 80)
		dom := puzzle.NewDomain(inst)
		bound := dom.F(inst)
		for {
			b := search.NewBounded(dom, bound)
			r := search.DFS[puzzle.Node](b)
			key := fmt.Sprintf("%d@%d", seed, bound)
			if !used[key] {
				d := r.Expanded - target
				if d < 0 {
					d = -d
				}
				if bestDist < 0 || d < bestDist {
					bestDist = d
					bestKey = key
					best = Workload[puzzle.Node]{W: r.Expanded, Domain: search.NewBounded(dom, bound)}
				}
				if r.Expanded >= lo && r.Expanded <= hi {
					used[key] = true
					return Workload[puzzle.Node]{W: r.Expanded, Domain: search.NewBounded(dom, bound)}, true
				}
			}
			if r.Expanded > hi {
				break
			}
			next, ok := b.NextBound()
			if !ok {
				break
			}
			bound = next
		}
	}
	if bestKey != "" {
		used[bestKey] = true
	}
	return best, bestDist >= 0
}
