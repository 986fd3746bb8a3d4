package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// The decode errors.  Every malformed input maps to exactly one of these
// (possibly wrapped with detail), never to a panic; the format packages
// re-export them under their own names.
var (
	ErrBadMagic  = errors.New("wire: not a frame of this format")
	ErrVersion   = errors.New("wire: unsupported format version")
	ErrChecksum  = errors.New("wire: checksum mismatch")
	ErrTruncated = errors.New("wire: truncated message")
	ErrCorrupt   = errors.New("wire: corrupt frame")
)

// Writer appends one frame; it cannot fail.
type Writer struct {
	// Buf is the destination with the frame so far appended; node codecs
	// append to it directly (AppendLevel).
	Buf   []byte
	start int
}

// NewFrame starts a frame at the end of buf.
func NewFrame(buf []byte, magic string, version byte) Writer {
	return Writer{Buf: append(append(buf, magic...), version), start: len(buf)}
}

// Byte, Uvarint and Varint append one field each.
func (w *Writer) Byte(b byte)      { w.Buf = append(w.Buf, b) }
func (w *Writer) Uvarint(v uint64) { w.Buf = binary.AppendUvarint(w.Buf, v) }
func (w *Writer) Varint(v int64)   { w.Buf = binary.AppendVarint(w.Buf, v) }

// Blob appends a uvarint-length-prefixed byte string.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.Buf = append(w.Buf, b...)
}

// Str is Blob for a string.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.Buf = append(w.Buf, s...)
}

// Seal appends the CRC of the frame and returns the buffer.
func (w *Writer) Seal() []byte {
	return binary.LittleEndian.AppendUint32(w.Buf, crc32.ChecksumIEEE(w.Buf[w.start:]))
}

// Reader consumes the fields of one frame.  It latches the first error:
// every later read returns zero, so a decoder reads a whole field list
// and checks once, with Close.
type Reader struct {
	b   []byte
	err error
}

// Open validates a frame's envelope — long enough for a header, magic,
// version, long enough for a CRC, CRC, in that order — and returns a
// Reader over the fields between header and CRC.  A failed check is the
// Reader's latched error.
func Open(b []byte, magic string, version byte) Reader {
	h := len(magic) + 1
	switch {
	case len(b) < h:
		return Reader{err: ErrTruncated}
	case string(b[:len(magic)]) != magic:
		return Reader{err: ErrBadMagic}
	case b[len(magic)] != version:
		return Reader{err: fmt.Errorf("%w: got %d, want %d", ErrVersion, b[len(magic)], version)}
	case len(b) < h+crc32.Size:
		return Reader{err: ErrTruncated}
	}
	body := b[:len(b)-crc32.Size]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[len(body):]) {
		return Reader{err: ErrChecksum}
	}
	return Reader{b: body[h:]}
}

// Err returns the latched error.
func (r *Reader) Err() error { return r.err }

// Corruptf latches an ErrCorrupt with detail, for the constraints a
// format puts on values that parsed.
func (r *Reader) Corruptf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Close ends the field list: the latched error, or ErrCorrupt when bytes
// are left over.
func (r *Reader) Close() error {
	if r.err == nil && len(r.b) != 0 {
		r.Corruptf("%d trailing bytes", len(r.b))
	}
	return r.err
}

// uvarint decodes the canonical uvarint at the front of b and returns it
// with its length n > 0; it is the only varint decoder in the tree.  As
// with binary.Uvarint, n == 0 is truncation and n < 0 a value to refuse:
// an overflow, or a non-minimal spelling (one ending in a zero
// continuation group).  varintErr classifies the two.
func uvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 { // most node and level counts
		return uint64(b[0]), 1
	}
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -n
	}
	return v, n
}

func varintErr(n int) error {
	if n == 0 {
		return ErrTruncated
	}
	return fmt.Errorf("%w: overflowing or non-minimal varint", ErrCorrupt)
}

// unzigzag inverts the mapping binary.AppendVarint applies.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Uvarint reads a canonical uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := uvarint(r.b)
	if n <= 0 {
		r.err = varintErr(n)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a canonical zigzag varint.
func (r *Reader) Varint() int64 { return unzigzag(r.Uvarint()) }

// Count reads a uvarint that must fit an int.
func (r *Reader) Count() int {
	v := r.Uvarint()
	if v > math.MaxInt {
		r.Corruptf("count %d overflows int", v)
		return 0
	}
	return int(v)
}

// Int reads a varint that must fit an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Corruptf("value %d overflows int", v)
		return 0
	}
	return int(v)
}

// Len reads the length of a sequence whose elements take at least a byte
// each: a Count that may not exceed the bytes left, so a hostile length
// is refused before anything is allocated for it.
func (r *Reader) Len() int {
	n := r.Count()
	if n > len(r.b) {
		r.Corruptf("length %d with %d bytes left", n, len(r.b))
		return 0
	}
	return n
}

// Blob reads a length-prefixed byte string into memory the caller owns;
// the empty blob is nil.
func (r *Reader) Blob() []byte {
	n := r.Len()
	if n == 0 {
		return nil
	}
	v := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return v
}

// Str is Blob for a string.
func (r *Reader) Str() string {
	n := r.Len()
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Flags reads a flags byte, refusing any bit outside known.
func (r *Reader) Flags(known byte) byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.err = ErrTruncated
		return 0
	}
	f := r.b[0]
	r.b = r.b[1:]
	if f&^known != 0 {
		r.Corruptf("unknown flag bits %#x", f&^known)
		return 0
	}
	return f
}

// AppendLevel appends one stack level: a uvarint node count, then the
// nodes.  Canonical level lists hold no empty level.
func AppendLevel[S any](buf []byte, c Codec[S], lv []S) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(lv)))
	for _, n := range lv {
		buf = c.AppendNode(buf, n)
	}
	return buf
}

// ReadLevels reads a level list — a uvarint level count, then that many
// AppendLevel levels, bottom level first — appending the nodes and each
// level's length to the caller's scratch (the form Arena.AppendLevels
// and PrependLevels take).  Counts are checked against the bytes left before the scratch
// grows, every encoded node taking at least one byte, and an empty level
// is refused, so the list has one spelling.  It walks a local copy of the
// Reader's window: the spill fault path decodes a segment per fault, and
// a method call per node showed there.
func ReadLevels[S any](c Codec[S], r *Reader, nodes []S, counts []int) ([]S, []int) {
	if r.err != nil {
		return nodes, counts
	}
	b := r.b
	levels, n := uvarint(b)
	if n <= 0 {
		r.err = varintErr(n)
		return nodes, counts
	}
	if b = b[n:]; levels > uint64(len(b)) {
		r.Corruptf("%d levels in %d bytes", levels, len(b))
		return nodes, counts
	}
	for ; levels > 0; levels-- {
		count, n := uvarint(b)
		if n <= 0 {
			r.err = varintErr(n)
			return nodes, counts
		}
		if b = b[n:]; count == 0 || count > uint64(len(b)) {
			r.Corruptf("level of %d nodes in %d bytes", count, len(b))
			return nodes, counts
		}
		counts = append(counts, int(count))
		nodes = slices.Grow(nodes, int(count))
		for ; count > 0; count-- {
			node, rest, err := c.DecodeNode(b)
			if err != nil {
				r.Corruptf("node: %v", err)
				return nodes, counts
			}
			b = rest
			nodes = append(nodes, node)
		}
	}
	r.b = b
	return nodes, counts
}
