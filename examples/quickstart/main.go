// Quickstart: solve a scrambled 15-puzzle on a simulated 1024-processor
// SIMD machine with the paper's best scheme (GP matching + D^K dynamic
// triggering), exactly the way the paper's CM-2 experiments ran — the
// final IDA* iteration searched exhaustively so that serial and parallel
// work coincide.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"simdtree"
	"simdtree/internal/puzzle"
)

func main() {
	opts := simdtree.Options{P: 1024, Workers: runtime.NumCPU()}
	stats, w, err := simdtree.SearchPuzzleContext(context.Background(), 2023, 44, "GP-DK", opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("problem size W            = %d nodes (serial ground truth)\n", w)
	fmt.Printf("solutions found           = %d\n", stats.Goals)
	fmt.Printf("node expansion cycles     = %d\n", stats.Cycles)
	fmt.Printf("load-balancing phases     = %d (%d work transfers)\n", stats.LBPhases, stats.Transfers)
	fmt.Printf("virtual parallel time     = %v\n", stats.Tpar)
	fmt.Printf("efficiency E              = %.3f  (speedup %.1f on %d PEs)\n",
		stats.Efficiency(), stats.Speedup(), stats.P)

	// The machine measures the parallel search; the serial solver hands
	// back the actual moves.
	start := puzzle.Scramble(2023, 44)
	names := map[uint8]string{puzzle.MoveUp: "U", puzzle.MoveDown: "D", puzzle.MoveLeft: "L", puzzle.MoveRight: "R"}
	if moves, bound, ok := puzzle.Solve(start, 0); ok {
		fmt.Printf("\noptimal solution (%d blank moves): ", bound)
		for _, m := range moves {
			fmt.Print(names[m])
		}
		fmt.Println()
	}

	fmt.Println("\navailable schemes:", simdtree.Schemes())
}
