// Package topology models the interconnection networks considered by the
// paper (hypercube, 2-D mesh, the CM-2 with its hardware scan support, and
// an idealised crossbar).  A Network converts a machine size P into the
// abstract step counts of the two communication primitives that dominate a
// load-balancing phase:
//
//   - a sum-scan (used by the setup step: enumerating idle and busy
//     processors, and the GP scheme's global-pointer bookkeeping), and
//   - a general fixed-size data transfer between an arbitrary processor
//     pair (used by the work-transfer step).
//
// Section 3.3 of the paper gives the asymptotic costs reproduced here:
// scans are O(log P) on a hypercube and O(sqrt P) on a mesh; general
// permutations are O(log^2 P) on a hypercube and O(sqrt P) on a mesh; the
// CM-2 performs both in (different) constant times due to dedicated
// hardware.  Step counts are dimensionless; the simulator multiplies them
// by per-step unit costs to obtain virtual time.
package topology

import (
	"fmt"
	"math"
)

// Network abstracts an interconnection topology's communication costs and
// neighbourhood structure for a machine of P processors.
type Network interface {
	// Name identifies the topology in reports and experiment output.
	Name() string

	// ScanSteps returns the number of unit steps one sum-scan over p
	// processors takes on this network.
	ScanSteps(p int) float64

	// TransferSteps returns the number of unit steps a fixed-size
	// point-to-point transfer between an arbitrary processor pair takes
	// (the cost of routing a general permutation).
	TransferSteps(p int) float64

	// Neighbors returns the direct neighbours of processor id in a
	// machine of p processors.  It is used by nearest-neighbour load
	// balancing baselines.
	Neighbors(p, id int) []int
}

// log2 returns the base-2 logarithm of p, at least 1 so that degenerate
// one-processor machines still pay a minimal cost.
func log2(p int) float64 {
	if p <= 2 {
		return 1
	}
	return math.Log2(float64(p))
}

// Hypercube is a binary d-cube: P = 2^d processors, scans in O(log P) and
// general permutations in O(log^2 P) (Section 3.3, equation 5).
type Hypercube struct{}

// Name implements Network.
func (Hypercube) Name() string { return "hypercube" }

// ScanSteps implements Network; a scan is one traversal of the cube's
// dimensions.
func (Hypercube) ScanSteps(p int) float64 { return log2(p) }

// TransferSteps implements Network; a general permutation costs O(log^2 P).
func (Hypercube) TransferSteps(p int) float64 { l := log2(p); return l * l }

// Neighbors implements Network: processor id is adjacent to id with each
// address bit flipped.
func (Hypercube) Neighbors(p, id int) []int {
	var ns []int
	for bit := 1; bit < p; bit <<= 1 {
		if n := id ^ bit; n < p {
			ns = append(ns, n)
		}
	}
	return ns
}

// Mesh is a 2-D wrap-free mesh of side sqrt(P); both scans and general
// transfers cost O(sqrt P) (Section 3.3, equation 6).
type Mesh struct{}

// Name implements Network.
func (Mesh) Name() string { return "mesh" }

// ScanSteps implements Network.
func (Mesh) ScanSteps(p int) float64 { return math.Sqrt(float64(p)) }

// TransferSteps implements Network.
func (Mesh) TransferSteps(p int) float64 { return math.Sqrt(float64(p)) }

// Neighbors implements Network: the 4-neighbourhood on a sqrt(P) x sqrt(P)
// grid (edges are not wrapped).
func (Mesh) Neighbors(p, id int) []int {
	side := Side(p)
	r, c := id/side, id%side
	var ns []int
	if r > 0 {
		ns = append(ns, id-side)
	}
	if r < side-1 && id+side < p {
		ns = append(ns, id+side)
	}
	if c > 0 {
		ns = append(ns, id-1)
	}
	if c < side-1 && id+1 < p {
		ns = append(ns, id+1)
	}
	return ns
}

// Side returns the side length of the smallest square holding p processors.
func Side(p int) int {
	side := int(math.Sqrt(float64(p)))
	for side*side < p {
		side++
	}
	if side < 1 {
		side = 1
	}
	return side
}

// CM2 models the Connection Machine CM-2 the paper's experiments ran on:
// dedicated scan hardware and an optimised router make both operations
// constant-cost regardless of machine size (Section 3.3).  The underlying
// wiring is a hypercube, which Neighbors exposes.
type CM2 struct{}

// Name implements Network.
func (CM2) Name() string { return "cm2" }

// ScanSteps implements Network; CM-2 scans complete in constant time.
func (CM2) ScanSteps(int) float64 { return 1 }

// TransferSteps implements Network; the CM-2 router's cost is a (larger)
// constant independent of P.
func (CM2) TransferSteps(int) float64 { return 1 }

// Neighbors implements Network via the CM-2's hypercube wiring.
func (CM2) Neighbors(p, id int) []int { return Hypercube{}.Neighbors(p, id) }

// Crossbar is an idealised network where all communication is free.  It
// isolates algorithmic behaviour (cycle and phase counts) from
// communication cost.
type Crossbar struct{}

// Name implements Network.
func (Crossbar) Name() string { return "crossbar" }

// ScanSteps implements Network.
func (Crossbar) ScanSteps(int) float64 { return 0 }

// TransferSteps implements Network.
func (Crossbar) TransferSteps(int) float64 { return 0 }

// Neighbors implements Network: every processor is adjacent to every other.
// To keep the result bounded it returns the ring neighbours, which is a
// valid subset for nearest-neighbour baselines.
func (Crossbar) Neighbors(p, id int) []int {
	if p <= 1 {
		return nil
	}
	return []int{(id + p - 1) % p, (id + 1) % p}
}

// ByName returns the named topology; it recognises "hypercube", "mesh",
// "cm2" and "crossbar".
func ByName(name string) (Network, error) {
	switch name {
	case "hypercube":
		return Hypercube{}, nil
	case "mesh":
		return Mesh{}, nil
	case "cm2":
		return CM2{}, nil
	case "crossbar":
		return Crossbar{}, nil
	}
	return nil, fmt.Errorf("topology: unknown network %q", name)
}
