package steal

import (
	"errors"
	"fmt"

	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/wire"
)

// Host is the node-side, codec-erased face of one shard of a distributed
// run: a full-P machine whose PE range [lo, hi) holds the shard's stacks
// while every other PE is empty.  All methods are cycle-boundary
// operations driven by the Driver; a Host is not safe for concurrent
// use (the server serialises access per session).
type Host interface {
	// Range returns the shard's [lo, hi) global PE range.
	Range() (lo, hi int)
	// Step runs one lock-step expansion cycle and returns its reductions.
	Step() simd.CycleInfo
	// Status returns the cycle-boundary flags without stepping.
	Status() (allEmpty, anyDonor bool)
	// Flags returns the busy (splittable) and idle (empty) flags of the
	// shard's PEs; index i covers global PE lo+i.
	Flags() (busy, idle []bool)
	// Transfer performs a local donor-to-receiver transfer between two
	// PEs of this shard and returns the nodes moved.
	Transfer(from, to int) (int, error)
	// Split splits PE from's stack for donation id addressed to global PE
	// to, returning the wire-encoded donated half and its node count; an
	// unsplittable donor returns (nil, 0, nil).
	Split(id uint64, from, to int) ([]byte, int, error)
	// Absorb validates an encoded frame and installs its stack into the
	// addressed idle PE, returning the nodes absorbed.
	Absorb(frame []byte) (int, error)
	// Export returns the wire payloads of the shard's [lo, hi) stacks and
	// the domain state (nil for stateless domains).
	Export() (stacks [][]byte, domainState []byte, err error)
	// Merge folds peer shards' domain-state payloads into this shard's
	// domain and returns the merged state.  Checkpoint assembly calls it
	// on shard 0 with the other shards' exports.
	Merge(states [][]byte) ([]byte, error)
}

// host is the generic Host implementation.
type host[S any] struct {
	m   *simd.Machine[S]
	d   search.Domain[S]
	dec wire.ArenaDecoder[S] // the codec, and the decode scratch of Absorb
	lo  int
	hi  int
}

// NewHost builds the shard machine for PE range [lo, hi) of a P-processor
// run: a full-size machine (so global PE indices and splitter semantics
// are identical to the single-machine run) with the given wire-encoded
// stacks installed in the range and every other PE empty.  stacks[i] is
// installed at global PE lo+i; domainState, when non-nil, restores a
// stateful domain.  The machine runs with one worker — a driven shard
// expands sequentially, which by the determinism contract changes nothing
// but wall-clock time.
func NewHost[S any](d search.Domain[S], codec wire.Codec[S], schemeLabel string, opts simd.Options, lo, hi int, stacks [][]byte, domainState []byte) (Host, error) {
	if codec == nil {
		return nil, errors.New("steal: nil codec")
	}
	if lo < 0 || hi > opts.P || lo >= hi {
		return nil, fmt.Errorf("steal: shard range [%d, %d) invalid for P=%d", lo, hi, opts.P)
	}
	if len(stacks) != hi-lo {
		return nil, fmt.Errorf("steal: %d stack payloads for a %d-PE shard", len(stacks), hi-lo)
	}
	sch, err := simd.ParseScheme[S](schemeLabel)
	if err != nil {
		return nil, err
	}
	opts.Workers = 1
	opts.Trace = nil // the Driver owns the trace ledger
	opts.Progress = nil
	// Spill is node-local: the job's admission already sized it, and a
	// shard holds only its [lo, hi) slice, so shard machines run unbounded
	// (a budget here would also demand a spill dir per shard for no memory
	// the admission hasn't accounted).
	opts.MemBudget = 0
	m, err := simd.NewMachine[S](d, sch, opts)
	if err != nil {
		return nil, err
	}
	// NewMachine seeds the root on PE 0; a shard starts from its range only.
	h := &host[S]{m: m, d: d, dec: wire.ArenaDecoder[S]{Codec: codec}, lo: lo, hi: hi}
	m.Arena().Clear(0)
	for i, payload := range stacks {
		if _, err := h.dec.Decode(payload, m.Arena(), lo+i); err != nil {
			return nil, fmt.Errorf("steal: stack for PE %d: %w", lo+i, err)
		}
	}
	if domainState != nil {
		st, ok := d.(search.Stateful)
		if !ok {
			return nil, errors.New("steal: domain state for a stateless domain")
		}
		if err := st.RestoreState(domainState); err != nil {
			return nil, err
		}
	}
	return h, nil
}

func (h *host[S]) Range() (int, int) { return h.lo, h.hi }

func (h *host[S]) Step() simd.CycleInfo { return h.m.StepCycle() }

func (h *host[S]) Status() (bool, bool) { return h.m.Status() }

func (h *host[S]) Flags() (busy, idle []bool) {
	n := h.hi - h.lo
	busy = make([]bool, n)
	idle = make([]bool, n)
	// Between cycles the arena's bitsets are in sync with the stack sizes,
	// and reading them does not walk the per-PE records.
	work, split := h.m.Arena().WorkBits(), h.m.Arena().SplitBits()
	for i := 0; i < n; i++ {
		busy[i] = split.Get(h.lo + i)
		idle[i] = !work.Get(h.lo + i)
	}
	return busy, idle
}

// inRange validates a global PE index against the shard range.
func (h *host[S]) inRange(pe int) error {
	if pe < h.lo || pe >= h.hi {
		return fmt.Errorf("steal: PE %d outside shard range [%d, %d)", pe, h.lo, h.hi)
	}
	return nil
}

func (h *host[S]) Transfer(from, to int) (int, error) {
	if err := h.inRange(from); err != nil {
		return 0, err
	}
	if err := h.inRange(to); err != nil {
		return 0, err
	}
	return h.m.TransferLocal(from, to)
}

func (h *host[S]) Split(id uint64, from, to int) ([]byte, int, error) {
	if err := h.inRange(from); err != nil {
		return nil, 0, err
	}
	// The split is the local transfer itself, into slot to (idle, or it is
	// refused: a shard holds no work outside its own range), lifted out of
	// the arena as the payload.
	n, err := h.m.TransferLocal(from, to)
	if err != nil || n == 0 {
		return nil, 0, err
	}
	payload := wire.EncodeArena(nil, h.dec.Codec, h.m.Arena(), to)
	h.m.Arena().Clear(to)
	return payload, n, nil
}

func (h *host[S]) Absorb(frame []byte) (int, error) {
	f, err := DecodeFrame(frame)
	if err != nil {
		return 0, err
	}
	if f.Codec != h.dec.Codec.Name() {
		return 0, fmt.Errorf("steal: frame stacks encoded with codec %q, shard uses %q", f.Codec, h.dec.Codec.Name())
	}
	if err := h.inRange(f.To); err != nil {
		return 0, err
	}
	// The install is a local transfer's: the split half's levels pushed
	// above an idle PE's top, so the schedule stays the single machine's.
	a := h.m.Arena()
	if !a.Empty(f.To) {
		return 0, fmt.Errorf("steal: absorb target PE %d is not idle (%d nodes)", f.To, a.Size(f.To))
	}
	n, err := h.dec.Decode(f.Stack, a, f.To)
	if err != nil {
		return 0, fmt.Errorf("steal: frame stack: %w", err)
	}
	return n, nil
}

func (h *host[S]) Export() ([][]byte, []byte, error) {
	stacks := make([][]byte, h.hi-h.lo)
	a := h.m.Arena()
	for i := range stacks {
		stacks[i] = wire.EncodeArena(nil, h.dec.Codec, a, h.lo+i)
	}
	var domain []byte
	if st, ok := h.d.(search.Stateful); ok {
		domain = st.SaveState()
	}
	return stacks, domain, nil
}

func (h *host[S]) Merge(states [][]byte) ([]byte, error) {
	st, ok := h.d.(search.StateMerger)
	if !ok {
		return nil, errors.New("steal: domain does not support state merging")
	}
	for i, s := range states {
		if err := st.MergeState(s); err != nil {
			return nil, fmt.Errorf("steal: merging shard state %d: %w", i, err)
		}
	}
	return st.SaveState(), nil
}
