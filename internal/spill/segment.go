package spill

import (
	"simdtree/internal/stack"
	"simdtree/internal/wire"
)

// Magic identifies a spill segment frame.
const Magic = "SSPL"

// Version is the current segment format version.  Any change to the byte
// layout must increment it; the golden-file test in this package exists
// to make silent format drift impossible.
const Version = 1

// The decode errors are the wire frame's.
var (
	ErrBadMagic  = wire.ErrBadMagic
	ErrVersion   = wire.ErrVersion
	ErrChecksum  = wire.ErrChecksum
	ErrTruncated = wire.ErrTruncated
	ErrCorrupt   = wire.ErrCorrupt
)

// maxP bounds the PE index a segment header may claim, mirroring the
// checkpoint format's machine-size bound, so a corrupt header cannot
// address absurd PEs.
const maxP = 1 << 20

// AppendSegment appends the encoding of one spill segment to buf and
// returns the extended buffer: the bottom k resident levels of PE pe,
// exactly as the arena holds them, as a wire frame with the field list
//
//	uvarint pe | uvarint seq | level list (wire.ReadLevels)
//
// so a segment is byte-for-byte reproducible from the stack contents
// alone.
func AppendSegment[S any](buf []byte, c wire.Codec[S], a *stack.Arena[S], pe int, seq uint64, k int) []byte {
	w := wire.NewFrame(buf, Magic, Version)
	w.Uvarint(uint64(pe))
	w.Uvarint(seq)
	w.Uvarint(uint64(k))
	a.ForEachBottomLevel(pe, k, func(lv []S) { w.Buf = wire.AppendLevel(w.Buf, c, lv) })
	return w.Seal()
}

// DecodeSegment parses a segment encoded by AppendSegment, returning the
// PE it belongs to, its sequence number, and the evicted levels appended
// to the caller's scratch: the nodes bottom level first, and the length of
// each level (the form Arena.PrependLevels takes).  Passing the slices a
// previous call returned, resliced to [:0], decodes without allocating.
// Decoding is strict: bad magic, an unknown version, a CRC mismatch,
// truncation, a segment without levels, zero-node levels, non-minimal
// varints and trailing bytes are all rejected with classified errors, and
// re-encoding the decoded levels reproduces the original bytes exactly.
func DecodeSegment[S any](c wire.Codec[S], b []byte, nodes []S, counts []int) (pe int, seq uint64, _ []S, _ []int, err error) {
	r := wire.Open(b, Magic, Version)
	peV := r.Uvarint()
	if peV >= maxP {
		r.Corruptf("PE %d out of range", peV)
	}
	seq = r.Uvarint()
	before := len(counts)
	nodes, counts = wire.ReadLevels(c, &r, nodes, counts)
	if len(counts) == before {
		r.Corruptf("segment holds no level")
	}
	if err := r.Close(); err != nil {
		return 0, 0, nil, nil, err
	}
	return int(peV), seq, nodes, counts, nil
}
