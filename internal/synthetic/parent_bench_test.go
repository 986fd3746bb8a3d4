package synthetic

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/search"
	"simdtree/internal/simd"
)

// pairedShape is one run shape of BenchmarkVsParent: an engine run (simd.Run
// at P processors) or, with P 0, the serial search.DFS.
type pairedShape struct {
	name    string
	p       int
	w       int64
	scheme  string
	workers int
	procs   int // GOMAXPROCS for the runs, when not 0
}

// timeRun runs d once in shape s and returns its stats and wall time.
func timeRun(b *testing.B, d search.Domain[Node], s pairedShape) (metrics.Stats, time.Duration) {
	start := time.Now()
	if s.p == 0 {
		r := search.DFS(d)
		return metrics.Stats{W: r.Expanded, PeakStack: r.PeakStack}, time.Since(start)
	}
	sch, err := simd.ParseScheme[Node](s.scheme)
	if err != nil {
		b.Fatal(err)
	}
	st, err := simd.Run(d, sch, simd.Options{P: s.p, Workers: s.workers})
	if err != nil {
		b.Fatal(err)
	}
	return st, time.Since(start)
}

// BenchmarkVsParent is the paired harness behind the generator's speed
// figures: Tree against parentTree, the generator it replaced, in one
// process, alternating op by op over the same trees (tree seed i for pair
// i) and swapping which runs first from pair to pair.  The shapes are
// simdmark's engine workloads, the serve-unique job and a serial DFS.  A
// pair whose stats differ fails the benchmark.  It reports new/parent (the
// ratio of total times), the median of the per-pair ratios and won_share,
// the share of pairs the new generator was faster in.  Give it a fixed
// count of pairs:
//
//	go test -run '^$' -bench 'BenchmarkVsParent/wide-expand' -benchtime 24x ./internal/synthetic
func BenchmarkVsParent(b *testing.B) {
	shapes := []pairedShape{
		{name: "wide-expand", p: 8192, w: 20_000_000, scheme: "GP-DK", workers: 1},
		{name: "pool-small-p", p: 256, w: 8_000_000, scheme: "GP-DK", workers: 2, procs: 1},
		{name: "lb-storm", p: 65536, w: 2_000_000, scheme: "nGP-S1.00", workers: 1},
		{name: "serve-unique", p: 64, w: 30_000, scheme: "GP-S0.90", workers: 1},
		{name: "serial-dfs", w: 2_000_000},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			if s.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(s.procs))
			}
			var total, totalParent time.Duration
			ratios := make([]float64, 0, b.N)
			won := 0
			for i := 0; i < b.N; i++ {
				var st, stParent metrics.Stats
				var t, tParent time.Duration
				seed := uint64(i + 1)
				run := func() { st, t = timeRun(b, New(s.w, seed), s) }
				runParent := func() { stParent, tParent = timeRun(b, newParent(s.w, seed), s) }
				if i%2 == 0 {
					runParent()
					run()
				} else {
					run()
					runParent()
				}
				if st != stParent {
					b.Fatalf("tree %d: stats %+v, the parent's generator gives %+v", seed, st, stParent)
				}
				total += t
				totalParent += tParent
				ratios = append(ratios, float64(t)/float64(tParent))
				if t < tParent {
					won++
				}
			}
			slices.Sort(ratios)
			b.ReportMetric(float64(total)/float64(totalParent), "new/parent")
			b.ReportMetric(ratios[len(ratios)/2], "median_new/parent")
			b.ReportMetric(float64(won)/float64(b.N), "won_share")
		})
	}
}
