package checkpoint

import (
	"errors"
	"fmt"

	"simdtree/internal/simd"
	"simdtree/internal/trace"
	"simdtree/internal/wire"
)

// RawSnapshot is a codec-erased simd.Snapshot: the per-PE stacks are kept
// as their wire payloads instead of decoded node values.  It is the
// coordinator-side view of a distributed run — the coordinator assembles
// and ships checkpoints for jobs whose node type it never links — and
// EncodeRaw/DecodeRaw are exact byte-level duals of Encode/Decode: a
// checkpoint encoded raw from payloads that wire-encode the same stacks
// is byte-identical to the generic encoding, and decoding raw then
// re-encoding reproduces the input.
type RawSnapshot struct {
	// Cycle is the number of completed expansion cycles (== Stats.Cycles).
	Cycle int
	// Stacks holds one wire.EncodeArena payload per PE.
	Stacks [][]byte
	// MatcherPointer is the GP global pointer (-1 when parked).
	MatcherPointer int

	// Ledger is the schedule state of the prefix.
	simd.Ledger

	// DomainState is the opaque payload of a stateful domain; nil for
	// stateless ones.
	DomainState []byte

	// Trace is the recorded prefix trace; nil when the run is untraced.
	Trace *trace.Trace

	// IDA is the IDA* iteration state.  Only Encode and Decode carry it:
	// it has no raw form, so EncodeRaw and DecodeRaw refuse it.
	IDA *simd.IDAState
}

// EncodeRaw serialises a raw snapshot in the exact SCKP layout of Encode.
// Unlike Encode it cannot derive meta.Codec, so the caller must supply the
// codec name of the stack payloads (normally carried over from the
// checkpoint the payloads were sourced from).  IDA* state has no raw form;
// distributed runs operate within one cost-bounded iteration.
func EncodeRaw(meta Meta, snap *RawSnapshot) ([]byte, error) {
	if snap == nil {
		return nil, errors.New("checkpoint: nil snapshot")
	}
	if meta.Codec == "" {
		return nil, errors.New("checkpoint: raw encode requires meta.Codec")
	}
	if snap.IDA != nil {
		return nil, errors.New("checkpoint: IDA* state has no raw encoding")
	}
	for i, payload := range snap.Stacks {
		if len(payload) == 0 {
			return nil, fmt.Errorf("checkpoint: stack %d has an empty payload", i)
		}
	}
	meta.P = len(snap.Stacks)
	return encode(meta, snap, func(pe int) []byte { return snap.Stacks[pe] })
}

// DecodeRaw parses a checkpoint without decoding the stack payloads, which
// stay as opaque wire encodings (structurally validated only when a shard
// machine installs them).  It rejects IDA* checkpoints: their iteration
// state has no raw form.
func DecodeRaw(b []byte) (Meta, *RawSnapshot, error) {
	meta, snap, err := decode(b)
	if err == nil && snap.IDA != nil {
		err = fmt.Errorf("checkpoint: %w: IDA* checkpoints have no raw decoding", ErrCorrupt)
	}
	if err != nil {
		return Meta{}, nil, err
	}
	return meta, snap, nil
}

// encode is the one SCKP writer: the meta block, then snap's fields in
// layout order, with the meta.P stack payloads drawn from payload — which
// may return the same buffer every call — rather than from snap.Stacks.
func encode(meta Meta, snap *RawSnapshot, payload func(pe int) []byte) ([]byte, error) {
	if meta.P == 0 || meta.P > maxP {
		return nil, fmt.Errorf("checkpoint: snapshot has %d stacks", meta.P)
	}
	// Sized for one single-node stack a PE — blob length, level count, node
	// count and a node of ten-odd bytes — which is about where a balanced
	// machine's snapshot lands; anything deeper grows it by appending.
	w := wire.NewFrame(make([]byte, 0, 256+16*meta.P), Magic, Version)
	w.Str(meta.Domain)
	w.Str(meta.Scheme)
	w.Str(meta.Topology)
	w.Str(meta.Codec)
	w.Uvarint(uint64(meta.P))
	w.Blob(meta.Extra)

	var flags byte
	if snap.InitDone {
		flags |= flagInitDone
	}
	if len(snap.DomainState) > 0 {
		flags |= flagDomainState
	}
	if snap.Trace != nil {
		flags |= flagTrace
	}
	if snap.IDA != nil {
		flags |= flagIDA
	}
	w.Byte(flags)
	w.Uvarint(uint64(snap.Cycle))
	w.Varint(int64(snap.MatcherPointer))
	w.Uvarint(uint64(snap.PhaseCycles))
	w.Varint(int64(snap.PhaseElapsed))
	w.Varint(int64(snap.PhaseWork))
	w.Varint(int64(snap.PhaseIdle))
	w.Varint(int64(snap.EstLB))
	writeStats(&w, snap.Stats)
	if len(snap.DomainState) > 0 {
		w.Blob(snap.DomainState)
	}
	for pe := 0; pe < meta.P; pe++ {
		w.Blob(payload(pe))
	}
	if snap.Trace != nil {
		writeTrace(&w, snap.Trace)
	}
	if snap.IDA != nil {
		w.Uvarint(uint64(snap.IDA.Iteration))
		w.Varint(int64(snap.IDA.Bound))
		w.Uvarint(uint64(len(snap.IDA.Done)))
		for _, it := range snap.IDA.Done {
			w.Varint(int64(it.Bound))
			writeStats(&w, it.Stats)
		}
	}
	return w.Seal(), nil
}

// decode is the one SCKP reader, the inverse of encode with the stack
// payloads left as wire encodings; its errors name the format.
func decode(b []byte) (Meta, *RawSnapshot, error) {
	meta, r := header(b)
	flags := r.Flags(flagAll)
	snap := &RawSnapshot{Cycle: r.Count(), MatcherPointer: r.Int()}
	snap.Ledger = simd.Ledger{
		InitDone:     flags&flagInitDone != 0,
		PhaseCycles:  r.Count(),
		PhaseElapsed: duration(&r),
		PhaseWork:    duration(&r),
		PhaseIdle:    duration(&r),
		EstLB:        duration(&r),
		Stats:        readStats(&r),
	}
	if flags&flagDomainState != 0 {
		if snap.DomainState = r.Blob(); snap.DomainState == nil {
			r.Corruptf("domain-state flag set on empty payload")
		}
	}
	if r.Err() == nil {
		snap.Stacks = make([][]byte, meta.P)
	}
	for i := range snap.Stacks {
		if snap.Stacks[i] = r.Blob(); snap.Stacks[i] == nil {
			r.Corruptf("stack %d has an empty payload", i)
			break
		}
	}
	if flags&flagTrace != 0 {
		snap.Trace = readTrace(&r)
	}
	if flags&flagIDA != 0 {
		snap.IDA = &simd.IDAState{Iteration: r.Count(), Bound: r.Int()}
		for n := r.Len(); n > 0 && r.Err() == nil; n-- {
			snap.IDA.Done = append(snap.IDA.Done, simd.IterationStat{Bound: r.Int(), Stats: readStats(&r)})
		}
	}
	if snap.MatcherPointer < -1 || snap.MatcherPointer >= meta.P {
		r.Corruptf("matcher pointer %d out of range for P=%d", snap.MatcherPointer, meta.P)
	}
	if err := r.Close(); err != nil {
		return Meta{}, nil, fmt.Errorf("checkpoint: %w", err)
	}
	return meta, snap, nil
}
