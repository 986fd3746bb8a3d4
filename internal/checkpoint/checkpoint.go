// Package checkpoint serialises a simd.Snapshot into a versioned,
// CRC-guarded binary file so an in-flight search survives a process
// death.  The design follows the engine's determinism contract: because
// cancellation (and therefore checkpointing) happens only at cycle
// boundaries, a checkpoint is an exact prefix of the uninterrupted
// schedule, and restoring it and running to completion reproduces the
// uninterrupted run's Stats and trace byte for byte.
//
// The format is a wire frame (internal/wire, "Frame discipline" in
// DESIGN.md): strict and canonical, so decoding rejects every malformed
// input with one of the five sentinel errors — it never panics on hostile
// input — and re-encoding a decoded checkpoint reproduces the original
// bytes exactly, which is how the golden-file compatibility test pins the
// format: any change to the layout must bump Version and teach Decode the
// old one, or the test fails.
//
// Field list (integers varint/uvarint, strings and byte blobs
// uvarint-length-prefixed):
//
//	meta: domain scheme topology codec | P | extra |
//	flags byte | cycle, matcher pointer, trigger ledger | stats |
//	[domain state] | P wire-encoded stacks | [trace] | [IDA* state]
package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/simd"
	"simdtree/internal/stack"
	"simdtree/internal/trace"
	"simdtree/internal/wire"
)

// Magic identifies a checkpoint file.
const Magic = "SCKP"

// Version is the current format version.  Any change to the byte layout
// must increment it; the golden-file test in this package exists to make
// silent format drift impossible.
const Version = 1

// The decode errors are the wire frame's.
var (
	ErrBadMagic  = wire.ErrBadMagic
	ErrVersion   = wire.ErrVersion
	ErrChecksum  = wire.ErrChecksum
	ErrTruncated = wire.ErrTruncated
	ErrCorrupt   = wire.ErrCorrupt
)

// maxP bounds the processor count a header may claim, so a corrupt
// header cannot trigger a huge allocation before the stack payloads are
// validated.
const maxP = 1 << 20

// Meta identifies what a checkpoint is a checkpoint of.  It is readable
// without the node codec (see Peek), which is how the server's spool
// rescan decides which decoder to use and which job a file belongs to.
type Meta struct {
	// Domain, Scheme and Topology name the run's configuration; they are
	// informational to this package but resume helpers compare them.
	Domain   string
	Scheme   string
	Topology string
	// Codec is the wire codec name the stacks were encoded with; Decode
	// refuses a codec whose Name differs.
	Codec string
	// P is the machine size; the body carries exactly P stacks.
	P int
	// Extra is an opaque application payload (the server stores the
	// canonical job-spec JSON here so a spooled file is self-describing).
	Extra []byte
}

// Encode serialises the snapshot.  meta.Codec and meta.P are derived
// from the codec and snapshot rather than trusted from the caller.
func Encode[S any](c wire.Codec[S], meta Meta, snap *simd.Snapshot[S]) ([]byte, error) {
	if c == nil {
		return nil, errors.New("checkpoint: nil codec")
	}
	if snap == nil || snap.Stacks == nil {
		return nil, errors.New("checkpoint: nil snapshot")
	}
	meta.Codec = c.Name()
	meta.P = snap.Stacks.P()
	raw := RawSnapshot{
		Cycle: snap.Cycle, MatcherPointer: snap.MatcherPointer, Ledger: snap.Ledger,
		DomainState: snap.DomainState, Trace: snap.Trace, IDA: snap.IDA,
	}
	// One scratch frames every stack: a snapshot costs no allocation per PE.
	scratch := make([]byte, 0, 256)
	return encode(meta, &raw, func(pe int) []byte {
		scratch = wire.EncodeArena(scratch[:0], c, snap.Stacks, pe)
		return scratch
	})
}

// Decode parses a checkpoint produced by Encode with the same codec.  On
// success the returned snapshot owns all its data.
func Decode[S any](c wire.Codec[S], b []byte) (Meta, *simd.Snapshot[S], error) {
	if c == nil {
		return Meta{}, nil, errors.New("checkpoint: nil codec")
	}
	meta, raw, err := decode(b)
	if err != nil {
		return Meta{}, nil, err
	}
	if meta.Codec != c.Name() {
		return Meta{}, nil, fmt.Errorf("checkpoint: %w: stacks encoded with codec %q, decoding with %q", ErrCorrupt, meta.Codec, c.Name())
	}
	snap := &simd.Snapshot[S]{
		Cycle: raw.Cycle, MatcherPointer: raw.MatcherPointer, Ledger: raw.Ledger,
		DomainState: raw.DomainState, Trace: raw.Trace, IDA: raw.IDA,
		Stacks: stack.NewArena[S](meta.P),
	}
	dec := wire.ArenaDecoder[S]{Codec: c}
	for i, payload := range raw.Stacks {
		if _, err := dec.Decode(payload, snap.Stacks, i); err != nil {
			return Meta{}, nil, fmt.Errorf("checkpoint: %w: stack %d: %v", ErrCorrupt, i, err)
		}
	}
	return meta, snap, nil
}

// Peek reads the header of a checkpoint without decoding the body, and
// without needing the node codec.  It still verifies the CRC, so a file
// that Peeks clean is structurally intact end to end.
func Peek(b []byte) (Meta, error) {
	meta, r := header(b)
	if err := r.Err(); err != nil {
		return Meta{}, fmt.Errorf("checkpoint: %w", err)
	}
	return meta, nil
}

// header opens the frame and parses the meta block, returning a reader
// positioned at the flags byte with any failure latched in it.
func header(b []byte) (Meta, wire.Reader) {
	r := wire.Open(b, Magic, Version)
	meta := Meta{Domain: r.Str(), Scheme: r.Str(), Topology: r.Str(), Codec: r.Str(), P: r.Count(), Extra: r.Blob()}
	if meta.P == 0 || meta.P > maxP {
		r.Corruptf("P=%d out of range", meta.P)
	}
	return meta, r
}

// WriteFile atomically replaces path with b, an encoded checkpoint: write
// a ".tmp-*" file in the target directory, fsync, rename.  A crash
// mid-write leaves either the previous checkpoint or none — never a torn
// file (the CRC catches torn renames on filesystems without atomic rename,
// turning them into a clean decode error) — and the server's spool sweeps
// the temp files such a crash leaves behind.
func WriteFile(path string, b []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(b); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) //lint:allow errdrop best-effort cleanup after a failed write
	}
	return err
}

const (
	flagInitDone byte = 1 << iota
	flagDomainState
	flagTrace
	flagIDA
	flagDonors // of the trace section's own flags byte, not the snapshot's

	flagAll = flagInitDone | flagDomainState | flagTrace | flagIDA
)

func writeStats(w *wire.Writer, st metrics.Stats) {
	w.Uvarint(uint64(st.P))
	w.Varint(st.W)
	w.Varint(st.Goals)
	w.Uvarint(uint64(st.Cycles))
	w.Uvarint(uint64(st.LBPhases))
	w.Uvarint(uint64(st.Transfers))
	w.Uvarint(uint64(st.InitCycles))
	w.Uvarint(uint64(st.InitPhases))
	w.Varint(int64(st.Tcalc))
	w.Varint(int64(st.Tidle))
	w.Varint(int64(st.Tlb))
	w.Varint(int64(st.Tpar))
	w.Uvarint(uint64(st.PeakStack))
	w.Uvarint(uint64(st.MaxTransfer))
	// Cancelled is deliberately not stored: a checkpoint is a clean
	// prefix, and a resumed run's final Cancelled must reflect the
	// resumed run, not the interrupted one.
}

func readStats(r *wire.Reader) metrics.Stats {
	return metrics.Stats{
		P: r.Count(), W: r.Varint(), Goals: r.Varint(),
		Cycles: r.Count(), LBPhases: r.Count(), Transfers: r.Count(),
		InitCycles: r.Count(), InitPhases: r.Count(),
		Tcalc: duration(r), Tidle: duration(r), Tlb: duration(r), Tpar: duration(r),
		PeakStack: r.Count(), MaxTransfer: r.Count(),
	}
}

func duration(r *wire.Reader) time.Duration { return time.Duration(r.Varint()) }

func writeTrace(w *wire.Writer, t *trace.Trace) {
	var f byte
	if t.CaptureDonors {
		f = flagDonors
	}
	w.Byte(f)
	w.Uvarint(uint64(len(t.Samples)))
	for _, s := range t.Samples {
		w.Uvarint(uint64(s.Cycle))
		w.Uvarint(uint64(s.Active))
		w.Varint(int64(s.R1))
		w.Varint(int64(s.R2))
	}
	w.Uvarint(uint64(len(t.Events)))
	for _, e := range t.Events {
		w.Uvarint(uint64(e.Cycle))
		w.Uvarint(uint64(e.Transfers))
		w.Varint(int64(e.Cost))
		// Donors is 0 for nil, else its length plus one: a captured event
		// with no donor is not an uncaptured one.
		if e.Donors == nil {
			w.Uvarint(0)
		} else {
			w.Uvarint(uint64(len(e.Donors)) + 1)
			for _, d := range e.Donors {
				w.Uvarint(uint64(d))
			}
		}
	}
}

// readTrace inverts writeTrace.  Each loop stops at the first latched
// error, so a hostile count costs no more memory than the bytes behind it.
func readTrace(r *wire.Reader) *trace.Trace {
	t := &trace.Trace{CaptureDonors: r.Flags(flagDonors) != 0}
	for n := r.Len(); n > 0 && r.Err() == nil; n-- {
		t.Samples = append(t.Samples, trace.Sample{Cycle: r.Count(), Active: r.Count(), R1: duration(r), R2: duration(r)})
	}
	for n := r.Len(); n > 0 && r.Err() == nil; n-- {
		e := trace.Event{Cycle: r.Count(), Transfers: r.Count(), Cost: duration(r)}
		if nd := r.Count(); nd > 0 {
			e.Donors = []int{}
			for nd--; nd > 0 && r.Err() == nil; nd-- {
				e.Donors = append(e.Donors, r.Count())
			}
		}
		t.Events = append(t.Events, e)
	}
	return t
}
