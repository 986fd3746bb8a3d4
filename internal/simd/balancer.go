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
	// a barrier.  The engine wires both from its worker pool; without
	// runParallel everything runs on the calling goroutine.
	workers     int
	runParallel func(task func(w int))

	// Reusable scratch: the idle bitset (complement of has-work), per-pair
	// move counts, the block of one a lone transfer is (its pair and its
	// count), each shard's block scratch for the splitter (the engine
	// sizes it), and the pre-bound shard task (allocated once, not per
	// phase).
	idleB        scan.Bits
	moved        []int
	one          [1]scan.Pair
	movedOne     [1]int
	nodes        [][]S
	curPairs     []scan.Pair
	taskTransfer func(w int)

	// held is the stack-size histogram Lanes.Held reports: held[s] PEs hold
	// s nodes, the last bucket MaxBatch or more.  The expansion kernel
	// fills it (setHeld) and account keeps it across a phase by moving each
	// transfer's donor and receiver between buckets.  It is nil — unknown —
	// after anything else changed a stack, until the next expansion:
	// RestoreSnapshot, TransferLocal, an install through Machine.Arena.  A
	// machine that expands one cycle a call anyway (a spiller, a
	// search.Shared domain) never fills it.
	held    []int32
	heldBuf [stack.MaxBatch + 1]int32

	// faultDonor, when non-nil (memory-bounded run), makes a donor PE
	// fully resident before its stack is split: bottom-node donation
	// reads the true bottom of the stack, which may be evicted.  It is
	// only ever called sequentially (makeResident) — by Transfer, and as
	// TransferAll's pre-pass over every donor of a round — and latches a
	// failed restore for the run loop to surface.
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
		c.idleB = scan.NewBits(p)
	}
	scan.ComplementInto(c.idleB, c.Arena.WorkBits(), p)
	return c.idleB
}

// makeResident restores the evicted levels of a donor about to be split.
func (c *Context[S]) makeResident(from int) {
	if c.faultDonor != nil && c.Arena.Splittable(from) {
		c.faultDonor(from)
	}
}

// blockPairs is the number of pairs the splitter is handed at a time: one
// flag word's worth, as in the expansion kernel — enough independent donors
// for their cache misses to overlap, few enough that the gathered nodes are
// still in cache when they are pushed.
const blockPairs = 64

// splitPairs runs pairs through the splitter a block at a time on shard w's
// block scratch, recording the nodes each pair moved in moved, without
// touching the shared phase accounting or the arena bitsets — the caller
// re-syncs the PEs (sequentially, after any parallel region).
func (c *Context[S]) splitPairs(w int, pairs []scan.Pair, moved []int) {
	for len(pairs) > 0 {
		n := min(len(pairs), blockPairs)
		c.nodes[w] = c.Splitter.SplitBlock(c.Arena, pairs[:n], moved[:n], c.nodes[w])
		pairs, moved = pairs[n:], moved[n:]
	}
}

// splitOne is the block of one, Transfer's and Machine.TransferLocal's: it
// moves split work from PE from to PE to and returns the number of stack
// nodes moved, leaving accounting and bitsets to the caller like splitPairs.
func (c *Context[S]) splitOne(from, to int) int {
	c.one[0] = scan.Pair{From: from, To: to}
	c.nodes[0] = c.Splitter.SplitBlock(c.Arena, c.one[:], c.movedOne[:], c.nodes[0])
	return c.movedOne[0]
}

// setHeld sums the size histograms of the kernel calls of one expansion
// into held; the PEs no call expanded hold nothing.
func (c *Context[S]) setHeld(scratch []*stack.ExpandScratch[S]) {
	h := &c.heldBuf
	*h = scratch[0].Held
	for _, sc := range scratch[1:] {
		for s, n := range sc.Held {
			h[s] += n
		}
	}
	var expanded int32
	for _, n := range h {
		expanded += n
	}
	h[0] += int32(c.Arena.P()) - expanded
	c.held = h[:]
}

// account re-syncs the bitsets of a pair that moved n nodes and books it
// into the phase (transfer count, maximum transfer size, donor trace, the
// size histogram); it reports whether the pair moved work.  Sequential
// code only.
func (c *Context[S]) account(p scan.Pair, n int) bool {
	c.Arena.SyncBits(p.From)
	c.Arena.SyncBits(p.To)
	if n == 0 {
		return false
	}
	if c.held != nil {
		from, to := c.Arena.Size(p.From), c.Arena.Size(p.To)
		c.reHold(from+n, from)
		c.reHold(to-n, to)
	}
	c.transfers++
	if n > c.maxTransfer {
		c.maxTransfer = n
	}
	if c.recordDonors {
		c.donors = append(c.donors, p.From)
	}
	return true
}

// reHold moves one PE from the histogram bucket of size was to that of is.
func (c *Context[S]) reHold(was, is int) {
	last := len(c.held) - 1
	c.held[min(was, last)]--
	c.held[min(is, last)]++
}

// Transfer splits the stack of processor from and appends the donated part
// to processor to — a round of one pair, for balancers that pair PEs without
// a matching round's guarantees.  It reports the number of stack nodes
// moved; a donor that can no longer split moves nothing.
func (c *Context[S]) Transfer(from, to int) int {
	c.makeResident(from)
	n := c.splitOne(from, to)
	c.account(c.one[0], n)
	return n
}

// parallelPairMin is the pair count per shard — one gather block — below
// which TransferAll does not wake the worker pool; the cut-over affects
// wall-clock time only.
const parallelPairMin = 64

// poolShardMin is the same cut-over for an expansion cycle, in busy PEs per
// shard: a cycle after one of fewer than workers*poolShardMin expansions runs
// on the calling goroutine.  A pool round trip costs 8-25 us between cores
// (simdmark's simd.pool_ns_per_cycle; 1.6 us on one P, where the pool is not
// started) and a node ~50 ns: a worker's wake-up is repaid by 160-500 nodes.
const poolShardMin = 512

// TransferAll performs every transfer of one matching round and reports how
// many pairs actually moved work.  The pairs must have pairwise-distinct
// donors and pairwise-distinct receivers, and no donor may also receive —
// what every rendezvous round provides, busy donors to idle receivers — so
// different pairs touch disjoint PEs: the splitter may gather a block's
// donated nodes before it pushes any, and the round can execute across the
// host worker shards, with nothing the schedule observes depending on
// either.  Donors with evicted levels are restored first, sequentially, so
// no segment I/O happens inside a block or a shard.  The splitter leaves
// the bitsets alone (pairs in different shards may share a word); they are
// re-synced, and the accounting reduced, sequentially in pair order.
func (c *Context[S]) TransferAll(pairs []scan.Pair) int {
	for _, p := range pairs {
		c.makeResident(p.From)
	}
	if cap(c.moved) < len(pairs) {
		c.moved = make([]int, max(len(pairs), 2*cap(c.moved), blockPairs))
	}
	c.moved = c.moved[:len(pairs)]
	if c.runParallel != nil && len(pairs) >= c.workers*parallelPairMin {
		c.curPairs = pairs
		if c.taskTransfer == nil {
			c.taskTransfer = func(w int) {
				n := len(c.curPairs) // shard w's even share of the round
				lo, hi := w*n/c.workers, (w+1)*n/c.workers
				c.splitPairs(w, c.curPairs[lo:hi], c.moved[lo:hi])
			}
		}
		c.runParallel(c.taskTransfer)
		c.curPairs = nil
	} else {
		c.splitPairs(0, pairs, c.moved)
	}
	done := 0
	for k, p := range pairs {
		if c.account(p, c.moved[k]) {
			done++
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
