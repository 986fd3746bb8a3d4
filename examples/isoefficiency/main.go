// Isoefficiency: reproduce the shape of the paper's Figure 4 on a laptop.
// Sweeps a grid of machine sizes and problem sizes for GP-S0.90 and
// nGP-S0.90, extracts experimental isoefficiency curves, and fits the
// growth exponent b in W ~ (P log P)^b per efficiency level (each
// curve's "fit" row): b near 1 confirms GP's O(P log P) scalability;
// nGP's exponent should come out visibly larger.
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"

	"simdtree/internal/experiments"
)

func main() {
	ps := []int{64, 128, 256, 512, 1024}
	ws := []int64{4_000, 8_000, 16_000, 32_000, 64_000, 128_000, 256_000, 512_000}
	levels := []float64{0.50, 0.65, 0.75}

	tables, err := experiments.IsoGrid("isoefficiency",
		[]string{"GP-S0.90", "nGP-S0.90"},
		ps, ws, runtime.NumCPU(), levels)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range tables {
		if err := experiments.WriteText(os.Stdout, t); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("b ~ 1 means O(P log P) isoefficiency (the paper's verdict for GP).")
}
