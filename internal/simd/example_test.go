package simd_test

import (
	"context"
	"fmt"

	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/synthetic"
)

// Searching a deterministic 100k-node tree on a simulated 512-processor
// CM-2 with the paper's GP matching and D^K triggering.
func ExampleRun() {
	sch, err := simd.ParseScheme[synthetic.Node]("GP-DK")
	if err != nil {
		panic(err)
	}
	stats, err := simd.Run[synthetic.Node](synthetic.New(100_000, 1), sch, simd.Options{P: 512})
	if err != nil {
		panic(err)
	}
	fmt.Printf("W=%d, E=%.2f, accounting residual=%v\n",
		stats.W, stats.Efficiency(), stats.BalanceCheck())
	// Output:
	// W=100000, E=0.68, accounting residual=0s
}

// The six schemes of the paper's Table 1 all parse from their labels.
func ExampleParseScheme() {
	for _, label := range simd.Table1Labels(0.90) {
		sch, err := simd.ParseScheme[synthetic.Node](label)
		if err != nil {
			panic(err)
		}
		fmt.Println(sch.Label)
	}
	// Output:
	// nGP-S0.90
	// nGP-DP
	// nGP-DK
	// GP-S0.90
	// GP-DP
	// GP-DK
}

// Running complete parallel IDA* — the paper's full algorithm — on a
// custom cost domain: every iteration is one exhaustive bounded search on
// the machine, so serial and parallel node counts match by construction.
func ExampleRunIDAStar() {
	dom := costChain{}
	sch, _ := simd.ParseScheme[int]("GP-S0.80")
	res, err := simd.RunIDAStar[int](context.Background(), dom, sch, simd.Options{P: 8}, 0, nil, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("iterations=%d final bound=%d W=%d goals=%d\n",
		len(res.Iterations), res.Bound, res.Stats.W, res.Stats.Goals)
	// Output:
	// iterations=3 final bound=2 W=11 goals=4
}

// costChain is a tiny complete binary tree of depth 2 with f = depth;
// goals live at the leaves.
type costChain struct{}

func (costChain) Root() int       { return 0 } // nodes encoded as depth*10+index
func (costChain) Goal(n int) bool { return n/10 == 2 }
func (costChain) F(n int) int     { return n / 10 }
func (costChain) Expand(n int, buf []int) []int {
	if n/10 >= 2 {
		return buf
	}
	d, i := n/10, n%10
	return append(buf, (d+1)*10+2*i, (d+1)*10+2*i+1)
}

var _ search.CostDomain[int] = costChain{}
