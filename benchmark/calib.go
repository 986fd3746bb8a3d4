package main

import (
	"fmt"
	"time"
)

// Why the timing metrics are reported at a reference host speed.
//
// The acceptance contract takes ten runs of each workload, wants the
// interquartile spread of every end-to-end metric within the metric's bound,
// and caps a bound at 25 %.  The reference host is a 2-core VM that has calm
// and noisy periods of minutes each: with nothing else running in the guest,
// ten back-to-back runs spread 1-13 % raw in a calm period (serve-hot to
// 25 %) and 12-45 % in a noisy one (wide-expand 25 %, spill-tight 31 %,
// serve-hot 37-45 %), so raw values fail the contract whenever the host is
// in its noisy state.  CPU time moves with wall time and the guest sees no
// steal; an integer loop barely notices, code that works through a few MB
// of stacks does.  The cause is outside the guest.
//
// So every run measures the host beside the workload.  calibSlice is a
// fixed kernel owned by the benchmark - a frozen miniature of a lock-step
// tree search: 8192 stacks, every cycle each pops a node, hashes it and
// pushes up to three children - run between the ops, and the speed index is
// its median rate over the run divided by refRate.  Times are multiplied by
// the index and rates divided by it; the noisy sets then spread 5-23 %, the
// calm ones 2-9 % (benchmark/README.md has the table).  The report and the
// result files carry the index and every raw value, so a reader can undo it.
//
// The kernel shares no code with the program and makes 80 passes over its
// own 2.9 MB per slice, so what an op left in the caches reaches the first
// pass only.  What the index cannot see is how fast one vCPU wakes the
// other, which the service workloads depend on.
//
// Of the kernels tried beside real ops for 20 minutes of drift (an 8 MB and
// a 64 MB random walk, a 64 MB streaming sum, this one), this one tracked
// the ops best; the 8 MB walk made every workload worse.

const (
	calibStacks = 8192
	calibDepth  = 40 // stacks stop growing here, as a DFS frontier does
	calibCycles = 80 // x 8192 expansions: about 20 ms a slice
	// refRate is calibSlice's rate on the reference host in its calm state,
	// in expansions per second, so that there index = 1 and the reported
	// values are the raw ones.  Only ratios of reported values are ever
	// compared, so a host of another speed needs no new constant.
	refRate = 5.8e7
)

var calibState [][]uint64

// calibSlice runs the kernel once and returns its rate.
func calibSlice() float64 {
	if calibState == nil {
		calibState = make([][]uint64, calibStacks)
		for pe := range calibState {
			calibState[pe] = make([]uint64, 0, calibDepth+4)
		}
	}
	start := time.Now()
	for c := 0; c < calibCycles; c++ {
		for pe, s := range calibState {
			if len(s) == 0 {
				s = append(s, uint64(pe+c))
			}
			x := s[len(s)-1] + 0x9e3779b97f4a7c15
			s = s[:len(s)-1]
			z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			children := int(z>>60) & 3
			if len(s) > calibDepth {
				children = 0
			}
			// The float work stands in for the domain's budget split.
			u := float64(z>>11) / (1 << 53)
			bias := uint64(u * u * u * 1000)
			for j := 0; j < children; j++ {
				s = append(s, z+uint64(j)+bias)
			}
			calibState[pe] = s
		}
	}
	return calibStacks * calibCycles / seconds(time.Since(start))
}

// speedometer collects calibration slices taken through a run.
type speedometer struct{ rates []float64 }

func (s *speedometer) sample() { s.rates = append(s.rates, calibSlice()) }

// normalizer reports timing metrics at reference speed and notes the raw
// values in the report.
type normalizer struct {
	res   *result
	index float64 // the host's speed during the run relative to the reference
}

func (s *speedometer) normalizer(res *result) normalizer {
	n := normalizer{res: res, index: median(s.rates) / refRate}
	res.notes = append(res.notes, fmt.Sprintf(
		"host speed index %.4f (median of %d calibration slices / %.3g expansions/s); times are multiplied by it, rates divided by it",
		n.index, len(s.rates), refRate))
	return n
}

func (n normalizer) time(name string, raw float64, samples int) {
	n.res.set(name, raw*n.index, samples)
	n.res.notes = append(n.res.notes, fmt.Sprintf("raw %s = %.6g", name, raw))
}

func (n normalizer) rate(name string, raw float64, samples int) {
	n.res.set(name, raw/n.index, samples)
	n.res.notes = append(n.res.notes, fmt.Sprintf("raw %s = %.6g", name, raw))
}
