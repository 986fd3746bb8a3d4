package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"simdtree/internal/stack"
	"simdtree/internal/wire"
)

// Magic identifies a spill segment frame.
const Magic = "SSPL"

// Version is the current segment format version.  Any change to the byte
// layout must increment it; the golden-file test in this package exists
// to make silent format drift impossible.
const Version = 1

// Sentinel decode errors.  Every malformed input maps to exactly one of
// these (possibly wrapped with detail); none of them is ever a panic.
var (
	ErrBadMagic  = errors.New("spill: not a spill segment")
	ErrVersion   = errors.New("spill: unsupported format version")
	ErrChecksum  = errors.New("spill: checksum mismatch")
	ErrTruncated = errors.New("spill: truncated")
	ErrCorrupt   = errors.New("spill: corrupt")
)

// maxP bounds the PE index a segment header may claim, mirroring the
// checkpoint format's machine-size bound, so a corrupt header cannot
// address absurd PEs.
const maxP = 1 << 20

// AppendSegment appends the encoding of one spill segment to buf and
// returns the extended buffer: the bottom k resident levels of PE pe,
// exactly as the arena holds them, framed as
//
//	"SSPL" | version byte | uvarint pe | uvarint seq |
//	uvarint level count | per level: uvarint node count + nodes |
//	CRC32-IEEE (little-endian) over everything before it
//
// The level framing is the canonical wire stack framing (bottom level
// first, no empty levels), so a segment is byte-for-byte reproducible
// from the stack contents alone.
func AppendSegment[S any](buf []byte, c wire.Codec[S], a *stack.Arena[S], pe int, seq uint64, k int) []byte {
	buf = append(buf, Magic...)
	buf = append(buf, Version)
	buf = binary.AppendUvarint(buf, uint64(pe))
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(k))
	a.ForEachBottomLevel(pe, k, func(lv []S) {
		buf = binary.AppendUvarint(buf, uint64(len(lv)))
		for _, n := range lv {
			buf = c.AppendNode(buf, n)
		}
	})
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// uvarint reads one canonically encoded uvarint, rejecting truncation,
// overflow and non-minimal encodings (the format is strict: one value,
// one byte sequence).
func uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		if n < 0 {
			return 0, nil, fmt.Errorf("uvarint overflow: %w", ErrCorrupt)
		}
		return 0, nil, ErrTruncated
	}
	if n > 1 && b[n-1] == 0 {
		return 0, nil, fmt.Errorf("non-minimal uvarint: %w", ErrCorrupt)
	}
	return v, b[n:], nil
}

// DecodeSegment parses a segment encoded by AppendSegment, returning the
// PE it belongs to, its sequence number, and the evicted levels appended
// to the caller's scratch: the nodes bottom level first, and the length of
// each level (the form Arena.PrependLevels takes).  Passing the slices a
// previous call returned, resliced to [:0], decodes without allocating.
// Decoding is strict: bad magic, an unknown version, a CRC mismatch,
// truncation, zero-node levels, non-minimal varints and trailing bytes are
// all rejected with classified errors, and re-encoding the decoded levels
// reproduces the original bytes exactly.
func DecodeSegment[S any](c wire.Codec[S], b []byte, nodes []S, counts []int) (pe int, seq uint64, _ []S, _ []int, err error) {
	if len(b) < len(Magic)+1+4 {
		return 0, 0, nil, nil, ErrTruncated
	}
	if string(b[:len(Magic)]) != Magic {
		return 0, 0, nil, nil, ErrBadMagic
	}
	if b[len(Magic)] != Version {
		return 0, 0, nil, nil, fmt.Errorf("%w: %d", ErrVersion, b[len(Magic)])
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return 0, 0, nil, nil, ErrChecksum
	}
	r := body[len(Magic)+1:]
	peV, r, err := uvarint(r)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	if peV >= maxP {
		return 0, 0, nil, nil, fmt.Errorf("PE %d out of range: %w", peV, ErrCorrupt)
	}
	seq, r, err = uvarint(r)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	levels, r, err := uvarint(r)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	// A segment holds at least one level, and every encoded node occupies
	// at least one byte, so counts beyond the remaining length are corrupt;
	// reject them before the scratch grows to hold them.
	if levels == 0 || levels > uint64(len(r)) {
		return 0, 0, nil, nil, fmt.Errorf("invalid level count %d: %w", levels, ErrCorrupt)
	}
	for l := uint64(0); l < levels; l++ {
		var count uint64
		count, r, err = uvarint(r)
		if err != nil {
			return 0, 0, nil, nil, err
		}
		if count == 0 || count > uint64(len(r)) {
			return 0, 0, nil, nil, fmt.Errorf("invalid node count %d: %w", count, ErrCorrupt)
		}
		counts = append(counts, int(count))
		for i := uint64(0); i < count; i++ {
			var node S
			node, r, err = c.DecodeNode(r)
			if err != nil {
				return 0, 0, nil, nil, fmt.Errorf("node decode: %w: %v", ErrCorrupt, err)
			}
			nodes = append(nodes, node)
		}
	}
	if len(r) != 0 {
		return 0, 0, nil, nil, fmt.Errorf("%d trailing bytes: %w", len(r), ErrCorrupt)
	}
	return int(peV), seq, nodes, counts, nil
}
