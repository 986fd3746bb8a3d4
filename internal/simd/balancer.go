package simd

import (
	"time"

	"simdtree/internal/match"
	"simdtree/internal/scan"
	"simdtree/internal/stack"
	"simdtree/internal/topology"
)

// Context exposes the machine state a Balancer manipulates during a
// load-balancing phase.  The PE stacks live in a structure-of-arrays
// Arena; donor/receiver eligibility is read from its can-split and
// has-work bitsets (O(P/64) to scan) or via the per-PE Splittable/Empty
// accessors.  Transfers must go through Transfer (or, for a whole
// matching round at once, TransferAll) so the engine can account for them
// and keep the bitsets in sync.  The engine keeps one Context per machine
// and resets it between phases, so the scratch below (flag buffers,
// per-pair move counts) is reused across the whole run.
type Context[S any] struct {
	Arena    *stack.Arena[S]
	Splitter stack.Splitter[S]
	Topo     topology.Network

	transfers    int
	maxTransfer  int
	recordDonors bool
	donors       []int

	// Host-side parallelism (never affects results): workers is the shard
	// count and runParallel, when non-nil, runs a task once per shard with
	// a barrier.  The engine wires both from its worker pool; a zero-value
	// Context runs everything sequentially.
	workers     int
	runParallel func(task func(w int))

	// Reusable scratch: busy/idle flag buffers for []bool consumers, the
	// idle bitset (complement of has-work), per-pair move counts, and the
	// pre-bound shard task (allocated once, not per phase).
	busy, idle   []bool
	idleB        scan.Bits
	moved        []int
	curPairs     []scan.Pair
	taskTransfer func(w int)

	// faultDonor, when non-nil (memory-bounded run), makes a donor PE
	// fully resident before its stack is split: bottom-node donation
	// reads the true bottom of the stack, which may be evicted.  It is
	// only ever called sequentially (makeResident) — by Transfer, and as a
	// pre-pass over every donor before TransferAll's parallel region — and
	// latches a failed restore for the run loop to surface.
	faultDonor func(pe int)
}

// reset prepares the context for a new load-balancing phase.  The donors
// slice is dropped rather than truncated because the previous phase's trace
// event aliases it.
func (c *Context[S]) reset(recordDonors bool) {
	c.transfers = 0
	c.maxTransfer = 0
	c.recordDonors = recordDonors
	c.donors = nil
}

// P returns the machine size.
func (c *Context[S]) P() int { return c.Arena.P() }

// Splittable reports that PE i can donate (at least two stack nodes);
// unlike the bitsets it is always fresh, even between the transfers of an
// in-progress round.
func (c *Context[S]) Splittable(i int) bool { return c.Arena.Splittable(i) }

// Empty reports that PE i has no work; always fresh like Splittable.
func (c *Context[S]) Empty(i int) bool { return c.Arena.Empty(i) }

// busyBits returns the donor-eligibility bitset: bit i set when PE i can
// split its work into two non-empty parts (the paper's "busy").  It is
// the arena's live can-split bitset — read-only, fresh at phase start and
// after every accounted transfer.
func (c *Context[S]) busyBits() scan.Bits { return c.Arena.SplitBits() }

// idleBits returns the receiver bitset: bit i set when PE i has no work.
// It is computed as the masked complement of the arena's has-work bitset
// into context scratch, valid until the next idleBits call.
func (c *Context[S]) idleBits() scan.Bits {
	p := c.Arena.P()
	if len(c.idleB) < (p+63)/64 {
		//lint:allow hotalloc idle bitset scratch grows once to P/64 words and is reused across phases
		c.idleB = scan.NewBits(p)
	}
	scan.ComplementInto(c.idleB, c.Arena.WorkBits(), p)
	return c.idleB
}

// shardBounds returns shard w's [lo, hi) range over n items, using the
// same contiguous chunking as the engine's expansion sharding.
func (c *Context[S]) shardBounds(w, n int) (lo, hi int) {
	chunk := (n + c.workers - 1) / c.workers
	lo = w * chunk
	hi = lo + chunk
	if hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Busy returns the donor-eligibility flags as a []bool, expanded
// branch-free from the can-split bitset.  The returned slice is the
// context's scratch and is valid until the next Busy call.
func (c *Context[S]) Busy() []bool {
	p := c.Arena.P()
	if cap(c.busy) < p {
		//lint:allow hotalloc flag scratch grows once to P and is reused across phases
		c.busy = make([]bool, p)
	}
	c.busy = c.busy[:p]
	c.busyBits().FillBools(c.busy)
	return c.busy
}

// Idle returns the receiver flags (PE has no work at all) as a []bool,
// expanded branch-free from the has-work bitset's complement.  The
// returned slice is the context's scratch and is valid until the next
// Idle call.
func (c *Context[S]) Idle() []bool {
	p := c.Arena.P()
	if cap(c.idle) < p {
		//lint:allow hotalloc flag scratch grows once to P and is reused across phases
		c.idle = make([]bool, p)
	}
	c.idle = c.idle[:p]
	c.idleBits().FillBools(c.idle)
	return c.idle
}

// makeResident restores the evicted levels of a donor about to be split.
func (c *Context[S]) makeResident(from int) {
	if c.faultDonor != nil && c.Arena.Splittable(from) {
		c.faultDonor(from)
	}
}

// transferNodes moves split work from PE from to PE to as range copies
// within the arena, without touching the shared phase accounting or the
// arena bitsets — the caller re-syncs the two PEs (sequentially, after any
// parallel region).  It returns the number of stack nodes moved.  A donor
// with levels still evicted moves nothing: its restore failed (the error
// is latched and ends the run at the next boundary), and the bottom of its
// resident window is not the bottom of its stack.
func (c *Context[S]) transferNodes(from, to int) int {
	if !c.Arena.Splittable(from) || c.Arena.Ghost(from) > 0 {
		return 0
	}
	return c.Splitter.SplitArena(c.Arena, from, to)
}

// Transfer splits the stack of processor from and appends the donated part
// to processor to.  It reports the number of stack nodes moved; a donor
// that can no longer split moves nothing.
func (c *Context[S]) Transfer(from, to int) int {
	c.makeResident(from)
	n := c.transferNodes(from, to)
	c.Arena.SyncBits(from)
	c.Arena.SyncBits(to)
	if n == 0 {
		return 0
	}
	c.transfers++
	if n > c.maxTransfer {
		c.maxTransfer = n
	}
	if c.recordDonors {
		//lint:allow hotalloc donor trace recording is opt-in (Trace.WantDonors)
		c.donors = append(c.donors, from)
	}
	return n
}

// parallelPairMin is the pair count below which TransferAll runs
// sequentially; the cut-over affects wall-clock time only.
const parallelPairMin = 64

// TransferAll performs every transfer of one matching round and reports how
// many pairs actually moved work.  The pairs must have pairwise-distinct
// donors and pairwise-distinct receivers — the guarantee every rendezvous
// matching round provides — so the arena mutations of different pairs
// touch disjoint PEs and the round can execute across the host worker
// shards.  The arena bitsets are not updated inside the parallel region
// (pairs in different shards may share a bitset word); they are re-synced,
// and the phase accounting (transfer count, maximum transfer size, donor
// trace) reduced, sequentially in pair order — bit-identical to calling
// Transfer pair by pair.
func (c *Context[S]) TransferAll(pairs []scan.Pair) int {
	if c.runParallel == nil || len(pairs) < parallelPairMin {
		done := 0
		for _, p := range pairs {
			if c.Transfer(p.From, p.To) > 0 {
				done++
			}
		}
		return done
	}
	// Restore every donor sequentially before the parallel region, so no
	// segment I/O happens inside it.
	for _, p := range pairs {
		c.makeResident(p.From)
	}
	if cap(c.moved) < len(pairs) {
		//lint:allow hotalloc per-pair move counts grow once to the pair count
		c.moved = make([]int, len(pairs))
	}
	c.moved = c.moved[:len(pairs)]
	c.curPairs = pairs
	if c.taskTransfer == nil {
		//lint:allow hotalloc shard task closure is created once and cached
		c.taskTransfer = func(w int) {
			lo, hi := c.shardBounds(w, len(c.curPairs))
			for k := lo; k < hi; k++ {
				p := c.curPairs[k]
				c.moved[k] = c.transferNodes(p.From, p.To)
			}
		}
	}
	c.runParallel(c.taskTransfer)
	c.curPairs = nil
	done := 0
	for k, n := range c.moved {
		c.Arena.SyncBits(pairs[k].From)
		c.Arena.SyncBits(pairs[k].To)
		if n == 0 {
			continue
		}
		done++
		c.transfers++
		if n > c.maxTransfer {
			c.maxTransfer = n
		}
		if c.recordDonors {
			//lint:allow hotalloc donor trace recording is opt-in (Trace.WantDonors)
			c.donors = append(c.donors, pairs[k].From)
		}
	}
	return done
}

// Balancer performs the load-balancing phase: matching idle processors
// with busy ones and transferring work.  It returns the number of
// matching/transfer rounds it needed (each round costs communication, see
// Costs.PhaseCost) and the number of individual work transfers performed.
type Balancer[S any] interface {
	// Name identifies the balancer in reports.
	Name() string
	// Balance runs one load-balancing phase.
	Balance(c *Context[S]) (rounds, transfers int)
}

// PhaseCoster lets a Balancer override the default phase cost model.  The
// nearest-neighbour baseline implements it to charge local-hop costs
// instead of the scan-setup-plus-router cost of the standard phase.
type PhaseCoster interface {
	PhaseCost(costs Costs, net topology.Network, p, rounds int) time.Duration
}

// MatchBalancer is the paper's load-balancing phase: idle processors are
// matched one-on-one to busy donors by the configured matching scheme and
// each donor splits its stack once.  With Multi set, matching and transfer
// rounds repeat until no idle processor can be served — the multiple work
// transfers the D^P trigger requires (Table 1, Section 2.3).
type MatchBalancer[S any] struct {
	Matcher match.BitMatcher
	Multi   bool
}

// Name implements Balancer.
func (b *MatchBalancer[S]) Name() string {
	if b.Multi {
		return b.Matcher.Name() + "*"
	}
	return b.Matcher.Name()
}

// Reset clears the matcher's cross-phase state (the GP pointer) so the
// balancer can be reused across runs.
func (b *MatchBalancer[S]) Reset() { b.Matcher.Reset() }

// Balance implements Balancer, matching directly on the engine's flag
// bitsets so the setup enumerations visit only set bits.
func (b *MatchBalancer[S]) Balance(c *Context[S]) (rounds, transfers int) {
	for {
		pairs := b.Matcher.MatchBits(c.busyBits(), c.idleBits(), c.P())
		if len(pairs) == 0 {
			if rounds == 0 {
				rounds = 1 // the phase still pays its setup scans
			}
			return rounds, transfers
		}
		rounds++
		transfers += c.TransferAll(pairs)
		if !b.Multi {
			return rounds, transfers
		}
	}
}
