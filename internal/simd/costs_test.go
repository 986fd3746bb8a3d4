package simd

import (
	"testing"
	"time"

	"simdtree/internal/topology"
)

func TestCM2PhaseCostMatchesPaper(t *testing.T) {
	c := CM2Costs()
	// Section 5: each load-balancing phase takes about 13ms on the CM-2
	// (3 scan units of 1ms plus one router transfer of 10ms), and each
	// node expansion cycle about 30ms — independent of machine size.
	for _, p := range []int{64, 8192, 65536} {
		if got := c.PhaseCost(topology.CM2{}, p, 1); got != 13*time.Millisecond {
			t.Errorf("P=%d: phase cost %v, want 13ms", p, got)
		}
	}
	if c.NodeExpansion != 30*time.Millisecond {
		t.Errorf("Ucalc = %v, want 30ms", c.NodeExpansion)
	}
}

func TestPhaseCostExtraRounds(t *testing.T) {
	c := CM2Costs()
	one := c.PhaseCost(topology.CM2{}, 1024, 1)
	two := c.PhaseCost(topology.CM2{}, 1024, 2)
	// Each extra round adds 2 rescans (2ms) and 1 transfer (10ms).
	if two-one != 12*time.Millisecond {
		t.Errorf("extra round cost %v, want 12ms", two-one)
	}
	// rounds < 1 is clamped.
	if c.PhaseCost(topology.CM2{}, 1024, 0) != one {
		t.Error("rounds<1 should be treated as one round")
	}
}

func TestPhaseCostScalesWithTopology(t *testing.T) {
	c := CM2Costs()
	p := 4096
	cm2 := c.PhaseCost(topology.CM2{}, p, 1)
	hyp := c.PhaseCost(topology.Hypercube{}, p, 1)
	mesh := c.PhaseCost(topology.Mesh{}, p, 1)
	if !(cm2 < hyp) {
		t.Errorf("hypercube phases (%v) should cost more than CM-2 (%v) at P=%d", hyp, cm2, p)
	}
	// Hypercube at P=4096: 3 scans * 12 steps + 1 transfer * 144 steps
	// = 36ms + 1440ms.
	if want := 36*time.Millisecond + 1440*time.Millisecond; hyp != want {
		t.Errorf("hypercube cost %v, want %v", hyp, want)
	}
	// Mesh at P=4096: sqrt = 64 steps for both.
	if want := 3*64*time.Millisecond + 640*time.Millisecond; mesh != want {
		t.Errorf("mesh cost %v, want %v", mesh, want)
	}
}

func TestLBScale(t *testing.T) {
	c := CM2Costs()
	c.LBScale = 16
	if got := c.PhaseCost(topology.CM2{}, 1024, 1); got != 16*13*time.Millisecond {
		t.Errorf("16x phase cost %v, want 208ms", got)
	}
	if c.normalize().LBScale != 16 {
		t.Error("normalize changed a set LBScale")
	}
	if (Costs{NodeExpansion: time.Second}).normalize().LBScale != 1 {
		t.Error("zero LBScale should be effective 1")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	n := (Costs{}).normalize()
	def := CM2Costs()
	if n.NodeExpansion != def.NodeExpansion || n.LBScale != 1 {
		t.Errorf("normalize gave %+v", n)
	}
	// Explicit values survive.
	c := Costs{NodeExpansion: time.Second, ScanUnit: time.Millisecond, TransferUnit: time.Millisecond, LBScale: 2}
	if c.normalize() != c {
		t.Error("normalize should not change explicit values")
	}
}
