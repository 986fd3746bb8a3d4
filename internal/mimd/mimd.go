// Package mimd implements an asynchronous (MIMD) work-stealing simulator
// for the same tree-search workloads the SIMD engine runs.  The paper's
// headline claim (Sections 1 and 9) is that its SIMD load-balancing
// schemes scale no worse than the best receiver-initiated MIMD schemes;
// this package provides those MIMD schemes — global round robin (GRR),
// asynchronous round robin (ARR) and random polling (RP), following Kumar,
// Grama and Rao — so the claim can be tested head-to-head under an
// identical cost model.
//
// The simulation is event-driven over the same virtual clock: each
// processor expands nodes from its private DFS stack (one PE window of the
// same stack.Arena the SIMD engine runs on) at Ucalc per node;
// when its stack drains it polls victims, one request per round trip of
// the topology's transfer latency, until a victim with a splittable stack
// answers with part of its work.  Unlike the SIMD machine there is no
// global synchronisation: only the two processors involved in a steal
// interact, which is exactly the advantage over SIMD the paper's
// introduction describes.
package mimd

import (
	"container/heap"
	"errors"
	"fmt"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/scan"
	"simdtree/internal/search"
	"simdtree/internal/stack"
	"simdtree/internal/topology"
)

// Policy selects the victim-choice rule of an idle processor.
type Policy int

// Victim-selection policies.
const (
	// GRR uses a single global counter: steal target = counter++ mod P.
	GRR Policy = iota
	// ARR gives each processor its own round-robin counter.
	ARR
	// RP picks victims uniformly at random (seeded, deterministic).
	RP
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case GRR:
		return "GRR"
	case ARR:
		return "ARR"
	case RP:
		return "RP"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Options configures a MIMD run.  The cost model mirrors the SIMD one: a
// node expansion costs NodeExpansion; one steal message costs
// TransferUnit * topology.TransferSteps(P) each way.
type Options struct {
	P             int
	Policy        Policy
	Topology      topology.Network // nil means hypercube
	NodeExpansion time.Duration    // Ucalc; 0 means 30ms (the paper's CM-2 value)
	TransferUnit  time.Duration    // per transfer step; 0 means 10ms
	Seed          uint64           // RP determinism
	MaxEvents     int              // safety valve; 0 means no limit
}

// Stats extends the shared metrics with steal accounting.
type Stats struct {
	metrics.Stats
	StealAttempts  int // requests sent
	StealSuccesses int // requests answered with work
}

type eventKind int

const (
	evExpand eventKind = iota // pe finishes one node expansion
	evSteal                   // steal request from `from` arrives at pe
	evReply                   // reply (possibly with work) arrives at pe
)

// event is a simulator occurrence ordered by virtual time.  A reply carries
// no payload: the work it delivers waits in the requester's parking slot.
type event struct {
	at   time.Duration
	kind eventKind
	pe   int // processor the event happens on
	from int // requester, for steal requests
	seq  int // FIFO tie-break for determinism
}

// eventQueue is a deterministic min-heap over (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// peState tracks one simulated processor; its stack is PE i of the
// simulator's arena.
type peState struct {
	busy     bool          // an evExpand event is outstanding
	stealing bool          // a steal request or reply is in flight
	idleFrom time.Duration // when the processor last ran out of work
	rr       int           // ARR counter
}

// Run simulates an asynchronous work-stealing search of d and returns its
// statistics under the same efficiency accounting as the SIMD engine.
func Run[S any](d search.Domain[S], opts Options) (Stats, error) {
	if d == nil {
		return Stats{}, errors.New("mimd: nil domain")
	}
	if opts.P <= 0 {
		return Stats{}, fmt.Errorf("mimd: invalid processor count %d", opts.P)
	}
	topo := opts.Topology
	if topo == nil {
		topo = topology.Hypercube{}
	}
	ucalc := opts.NodeExpansion
	if ucalc <= 0 {
		ucalc = 30 * time.Millisecond
	}
	xferUnit := opts.TransferUnit
	if xferUnit <= 0 {
		xferUnit = 10 * time.Millisecond
	}
	latency := time.Duration(float64(xferUnit) * topo.TransferSteps(opts.P))
	if latency <= 0 {
		latency = time.Nanosecond
	}

	sim := &simulator[S]{
		d:        d,
		opts:     opts,
		ucalc:    ucalc,
		latency:  latency,
		pes:      make([]peState, opts.P),
		arena:    stack.NewArena[S](2 * opts.P),
		rngState: opts.Seed ^ 0x9e3779b97f4a7c15,
		splitter: stack.HalfStack[S]{},
	}
	for i := range sim.pes {
		// ARR counters start staggered (the usual initialisation) so the
		// first polling wave does not converge on processor 0.
		sim.pes[i].rr = i + 1
	}
	sim.arena.PushLevel(0, []S{d.Root()})
	sim.pes[0].busy = true
	sim.schedule(&event{at: ucalc, kind: evExpand, pe: 0})
	// Every other processor starts idle and immediately begins polling.
	for i := 1; i < opts.P; i++ {
		sim.goIdle(i)
	}

	if err := sim.run(); err != nil {
		return sim.stats, err
	}
	sim.finish()
	return sim.stats, nil
}

type simulator[S any] struct {
	d        search.Domain[S]
	opts     Options
	ucalc    time.Duration
	latency  time.Duration
	pes      []peState
	arena    *stack.Arena[S] // PEs 0..P-1; slot P+i parks the work of the reply travelling to PE i
	queue    eventQueue
	seq      int
	now      time.Duration
	grr      int
	rngState uint64
	stats    Stats
	splitter stack.Splitter[S]
	pair     [1]scan.Pair // a steal is a block of one: the pair, what it moved, the splitter's scratch
	moved    [1]int
	xfer     []S
	buf      []S
}

func (s *simulator[S]) schedule(e *event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.queue, e)
}

func (s *simulator[S]) run() error {
	events := 0
	for s.queue.Len() > 0 {
		if s.opts.MaxEvents > 0 && events >= s.opts.MaxEvents {
			return fmt.Errorf("mimd: exceeded MaxEvents=%d", s.opts.MaxEvents)
		}
		events++
		e := heap.Pop(&s.queue).(*event)
		s.now = e.at
		switch e.kind {
		case evExpand:
			s.handleExpand(e.pe)
		case evSteal:
			s.handleSteal(e.pe, e.from)
		case evReply:
			s.handleReply(e.pe)
		}
	}
	return nil
}

// handleExpand completes one node expansion on pe and decides its next
// action: expand again, or start stealing.
func (s *simulator[S]) handleExpand(pe int) {
	st := &s.pes[pe]
	a := s.arena
	node, ok := a.Pop(pe)
	if !ok {
		// Cannot happen — steals leave at least one node — but degrade
		// gracefully rather than corrupt the accounting.
		st.busy = false
		s.goIdle(pe)
		return
	}
	s.stats.W++
	if s.d.Goal(node) {
		s.stats.Goals++
	}
	s.buf = s.d.Expand(node, s.buf[:0])
	a.PushLevel(pe, s.buf)
	if sz := a.Size(pe); sz > s.stats.PeakStack {
		s.stats.PeakStack = sz
	}
	if !a.Empty(pe) {
		s.schedule(&event{at: s.now + s.ucalc, kind: evExpand, pe: pe})
		return
	}
	st.busy = false
	s.goIdle(pe)
}

// goIdle marks pe idle and, if work exists anywhere, sends a steal request.
func (s *simulator[S]) goIdle(pe int) {
	st := &s.pes[pe]
	if !st.stealing {
		st.idleFrom = s.now
	}
	victim := s.pickVictim(pe)
	if victim < 0 {
		st.stealing = false
		return
	}
	st.stealing = true
	s.stats.StealAttempts++
	s.schedule(&event{at: s.now + s.latency, kind: evSteal, pe: victim, from: pe})
}

// pickVictim returns the next steal target for pe, or -1 when no work
// exists anywhere (termination for this processor).  Only a processor
// whose own stack is empty asks, so "anywhere" is the whole arena — the
// parking slots included, which is how work in flight counts.
func (s *simulator[S]) pickVictim(pe int) int {
	if s.arena.NoWork() {
		return -1
	}
	for {
		var v int
		switch s.opts.Policy {
		case GRR:
			v = s.grr % s.opts.P
			s.grr++
		case ARR:
			v = s.pes[pe].rr % s.opts.P
			s.pes[pe].rr++
		default: // RP
			v = int(splitmix64(&s.rngState) % uint64(s.opts.P))
		}
		if v != pe || s.opts.P == 1 {
			return v
		}
	}
}

// handleSteal processes a steal request arriving at victim from requester
// and sends back a reply, with work when the victim can split.
func (s *simulator[S]) handleSteal(victim, requester int) {
	a, parked := s.arena, s.opts.P+requester
	if a.Splittable(victim) {
		// Split into the requester's parking slot (empty: a processor has
		// one request outstanding), where the donated half rides out the
		// reply's latency.
		s.pair[0] = scan.Pair{From: victim, To: parked}
		s.xfer = s.splitter.SplitBlock(a, s.pair[:], s.moved[:], s.xfer)
		n := s.moved[0]
		a.SyncBits(victim)
		a.SyncBits(parked)
		s.stats.StealSuccesses++
		s.stats.Transfers++
		if n > s.stats.MaxTransfer {
			s.stats.MaxTransfer = n
		}
	}
	s.schedule(&event{at: s.now + s.latency, kind: evReply, pe: requester})
}

// handleReply delivers a steal reply to pe, with whatever work its parking
// slot holds: the same level pushes the split made, one hop on.
func (s *simulator[S]) handleReply(pe int) {
	st := &s.pes[pe]
	a, parked := s.arena, s.opts.P+pe
	a.ForEachLevel(parked, func(lv []S) { a.PushLevel(pe, lv) })
	a.Clear(parked)
	if !a.Empty(pe) {
		// The idle period ends now; charge it.
		s.stats.Tidle += s.now - st.idleFrom
		st.stealing = false
		st.busy = true
		s.schedule(&event{at: s.now + s.ucalc, kind: evExpand, pe: pe})
		return
	}
	// Rejected: try the next victim.
	s.goIdle(pe)
}

// finish closes the books: processors that went idle and never received
// work again idle until the machine-wide finish time.
func (s *simulator[S]) finish() {
	s.stats.P = s.opts.P
	s.stats.Tpar = s.now
	s.stats.Tcalc = time.Duration(s.stats.W) * s.ucalc
	for i := range s.pes {
		st := &s.pes[i]
		if !st.busy && s.arena.Empty(i) && st.idleFrom < s.now {
			s.stats.Tidle += s.now - st.idleFrom
		}
	}
	// Everything that is neither computation nor idling is steal traffic;
	// report it in Tlb so Efficiency() keeps its Section 3.1 meaning.
	total := time.Duration(s.opts.P) * s.stats.Tpar
	if rest := total - s.stats.Tcalc - s.stats.Tidle; rest > 0 {
		s.stats.Tlb = rest
	}
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
