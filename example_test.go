package simdtree_test

import (
	"context"
	"fmt"
	"log"

	"simdtree"
	"simdtree/internal/puzzle"
	"simdtree/internal/queens"
)

// Searching a deterministic synthetic tree of exactly 50000 nodes on a
// 256-processor machine with the paper's best scheme.
func ExampleSearchSyntheticContext() {
	stats, err := simdtree.SearchSyntheticContext(context.Background(), 50000, 7, "GP-DK", simdtree.Options{P: 256})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("nodes expanded:", stats.W)
	fmt.Printf("efficiency: %.2f\n", stats.Efficiency())
	// Output:
	// nodes expanded: 50000
	// efficiency: 0.69
}

// Any type with Root/Expand/Goal runs on the machine; here, counting all
// solutions of the 8-queens problem.
func ExampleRunContext() {
	stats, err := simdtree.RunContext[queens.Node](context.Background(), queens.New(8), "GP-S0.80", simdtree.Options{P: 64})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("solutions:", stats.Goals)
	// Output:
	// solutions: 92
}

// The six load-balancing schemes of the paper's Table 1.
func ExampleSchemes() {
	for _, label := range simdtree.Schemes() {
		fmt.Println(label)
	}
	// Output:
	// nGP-S0.85
	// nGP-DP
	// nGP-DK
	// GP-S0.85
	// GP-DP
	// GP-DK
}

// Solving one instance outright (the moves, not just the counts) with
// serial IDA* and the linear-conflict heuristic.
func ExampleSolve() {
	start := puzzle.Scramble(42, 20)
	moves, bound, ok := puzzle.Solve(start, 0)
	if !ok {
		log.Fatal("unsolved")
	}
	end, _ := puzzle.Apply(start, moves)
	fmt.Println("optimal length:", bound)
	fmt.Println("solved:", end.H == 0)
	// Output:
	// optimal length: 18
	// solved: true
}
