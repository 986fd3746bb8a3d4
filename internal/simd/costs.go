package simd

import (
	"time"

	"simdtree/internal/topology"
)

// Costs is the virtual cost model of Section 3.1/3.3: one node expansion
// cycle costs NodeExpansion (Ucalc); a load-balancing phase costs a setup
// of sum-scans plus one general data transfer per round, each scaled by the
// topology's step counts.  LBScale multiplies the whole phase cost — the
// knob Table 5 turns by padding messages (12x, 16x).
type Costs struct {
	NodeExpansion time.Duration // Ucalc: one node expansion cycle
	ScanUnit      time.Duration // cost per topology scan step
	TransferUnit  time.Duration // cost per topology transfer step
	LBScale       float64       // multiplier on load-balancing cost; 0 means 1

	// PerNodeTransfer extends the paper's constant-message-size model
	// (Section 3.1 assumes "the size of the messages containing work is
	// constant"): when positive, each transfer round additionally costs
	// this much per stack node in its largest message.  Since all
	// transfers of a round happen in lock-step, the round is as slow as
	// its biggest message.  Zero reproduces the paper.
	PerNodeTransfer time.Duration
}

// Load-balancing phase structure: the setup step performs setupScans
// sum-scans (enumerate idle, enumerate busy, and the global-pointer /
// termination bookkeeping); every transfer round after the first re-runs
// the two enumerations.
const (
	setupScans      = 3
	perRoundRescans = 2
)

// CM2Costs reproduces the paper's measured CM-2 constants: a 30 ms node
// expansion cycle and a 13 ms load-balancing phase (3 scan units of 1 ms
// plus one router transfer of 10 ms) — Section 5.
func CM2Costs() Costs {
	return Costs{
		NodeExpansion: 30 * time.Millisecond,
		ScanUnit:      1 * time.Millisecond,
		TransferUnit:  10 * time.Millisecond,
		LBScale:       1,
	}
}

// normalize fills in defaults: a zero-value Costs means "the paper's
// CM-2 constants"; otherwise only the expansion cost and scale get
// defaulted, so explicitly free communication (ScanUnit = TransferUnit =
// 0 with a set NodeExpansion) remains expressible.
func (c Costs) normalize() Costs {
	if c == (Costs{}) {
		return CM2Costs()
	}
	if c.NodeExpansion <= 0 {
		c.NodeExpansion = CM2Costs().NodeExpansion
	}
	if c.ScanUnit < 0 {
		c.ScanUnit = 0
	}
	if c.TransferUnit < 0 {
		c.TransferUnit = 0
	}
	if c.PerNodeTransfer < 0 {
		c.PerNodeTransfer = 0
	}
	if c.LBScale <= 0 {
		c.LBScale = 1
	}
	return c
}

// PhaseCost returns the virtual duration of one load-balancing phase with
// the given number of transfer rounds on a machine of p processors wired
// as net.
func (c Costs) PhaseCost(net topology.Network, p, rounds int) time.Duration {
	if rounds < 1 {
		rounds = 1
	}
	scanSteps := net.ScanSteps(p)
	xferSteps := net.TransferSteps(p)
	scans := float64(setupScans + (rounds-1)*perRoundRescans)
	cost := scans*float64(c.ScanUnit)*scanSteps +
		float64(rounds)*float64(c.TransferUnit)*xferSteps
	return time.Duration(cost * c.LBScale)
}

// EffectiveLBScale returns LBScale with the zero value mapped to 1.
func (c Costs) EffectiveLBScale() float64 {
	if c.LBScale <= 0 {
		return 1
	}
	return c.LBScale
}

// MessageCost returns the additional size-dependent cost of a phase that
// moved at most maxNodes stack nodes in a single message, under the
// PerNodeTransfer extension; zero under the paper's constant-size model.
func (c Costs) MessageCost(net topology.Network, p, maxNodes int) time.Duration {
	if c.PerNodeTransfer <= 0 || maxNodes <= 0 {
		return 0
	}
	cost := float64(c.PerNodeTransfer) * float64(maxNodes) * net.TransferSteps(p)
	return time.Duration(cost * c.EffectiveLBScale())
}

// SingleRoundCost is the a-priori estimate of a one-round phase, used as
// the initial L before any phase has run.
func (c Costs) SingleRoundCost(net topology.Network, p int) time.Duration {
	return c.PhaseCost(net, p, 1)
}
