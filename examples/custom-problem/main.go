// Custom problem: plug a user-defined search domain into the SIMD engine.
// The domain here is graph colouring by backtracking — count all proper
// 3-colourings of a random graph — implemented entirely in this file
// against the search.Domain interface, then searched in parallel under
// three different schemes.  Nothing in the engine knows about colouring;
// any finite tree with a successor generator works.
package main

import (
	"fmt"
	"log"
	"runtime"

	"simdtree/internal/search"
	"simdtree/internal/simd"
)

// coloring is a partial assignment of colours to the first Assigned
// vertices of a fixed graph.
type coloring struct {
	Assigned uint8
	Colors   [24]uint8 // colour of each assigned vertex (0..k-1)
}

// graphColoring is the search domain: a graph plus a colour budget.
type graphColoring struct {
	n     int
	k     uint8
	adj   [24]uint32 // adjacency bitmasks
	nEdge int
}

// newRandomGraph builds a deterministic random graph with n vertices and
// edge probability ~den/256.
func newRandomGraph(n int, k uint8, seed uint64, den uint64) *graphColoring {
	g := &graphColoring{n: n, k: k}
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if next()%256 < den {
				g.adj[i] |= 1 << j
				g.adj[j] |= 1 << i
				g.nEdge++
			}
		}
	}
	return g
}

// Root implements search.Domain.
func (g *graphColoring) Root() coloring { return coloring{} }

// Goal implements search.Domain: all vertices coloured.
func (g *graphColoring) Goal(c coloring) bool { return int(c.Assigned) == g.n }

// Expand implements search.Domain: try every colour for the next vertex
// that is consistent with its already-coloured neighbours.
func (g *graphColoring) Expand(c coloring, buf []coloring) []coloring {
	v := int(c.Assigned)
	if v == g.n {
		return buf
	}
	for col := uint8(0); col < g.k; col++ {
		ok := true
		for u := 0; u < v; u++ {
			if g.adj[v]&(1<<u) != 0 && c.Colors[u] == col {
				ok = false
				break
			}
		}
		if ok {
			child := c
			child.Colors[v] = col
			child.Assigned++
			buf = append(buf, child)
		}
	}
	return buf
}

func main() {
	g := newRandomGraph(22, 3, 7, 45)
	serial := search.DFS[coloring](g)
	fmt.Printf("graph: %d vertices, %d edges, %d colours\n", g.n, g.nEdge, g.k)
	fmt.Printf("serial: W = %d nodes, %d proper colourings\n\n", serial.Expanded, serial.Goals)

	for _, label := range []string{"GP-S0.90", "GP-DK", "nGP-DP"} {
		sch, err := simd.ParseScheme[coloring](label)
		if err != nil {
			log.Fatal(err)
		}
		opts := simd.Options{P: 256, Workers: runtime.NumCPU()}
		opts.Costs = simd.CM2Costs()
		stats, err := simd.Run[coloring](g, sch, opts)
		if err != nil {
			log.Fatal(err)
		}
		if stats.Goals != serial.Goals || stats.W != serial.Expanded {
			log.Fatalf("%s: parallel result diverged from serial", label)
		}
		fmt.Printf("%-9s cycles=%4d phases=%3d E=%.3f\n",
			label, stats.Cycles, stats.LBPhases, stats.Efficiency())
	}
}
