package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"testing"
)

const (
	testMagic   = "TEST"
	testVersion = 3
)

// sampleFrame writes one of every field kind.
func sampleFrame() []byte {
	w := NewFrame(nil, testMagic, testVersion)
	w.Str("key")
	w.Uvarint(300)
	w.Varint(-5)
	w.Byte(0x01)
	w.Blob([]byte{9, 8, 7})
	w.Blob(nil)
	return w.Seal()
}

// seal appends a fresh CRC to a CRC-less body, so the damage under test is
// reached rather than masked by ErrChecksum.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

func TestFrameRoundTrip(t *testing.T) {
	b := sampleFrame()
	r := Open(b, testMagic, testVersion)
	if s := r.Str(); s != "key" {
		t.Errorf("Str = %q", s)
	}
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -5 {
		t.Errorf("Varint = %d", v)
	}
	if f := r.Flags(0x03); f != 0x01 {
		t.Errorf("Flags = %#x", f)
	}
	if v := r.Blob(); !bytes.Equal(v, []byte{9, 8, 7}) {
		t.Errorf("Blob = %v", v)
	} else if v[0] = 0; !bytes.Equal(b, sampleFrame()) {
		t.Error("Blob aliases the frame")
	}
	if v := r.Blob(); v != nil {
		t.Errorf("empty Blob = %v, want nil", v)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// A frame appended after a prefix checksums itself, not the prefix.
	w := NewFrame([]byte("prefix"), testMagic, testVersion)
	w.Uvarint(1)
	tail := w.Seal()[len("prefix"):]
	r = Open(tail, testMagic, testVersion)
	if r.Uvarint() != 1 || r.Close() != nil {
		t.Errorf("frame after a prefix does not open: %v", r.Err())
	}
}

// TestOpenEnvelope is the one envelope table the three formats used to
// spell apiece: every way a header or trailer can be wrong, in the order
// Open checks them.
func TestOpenEnvelope(t *testing.T) {
	valid := sampleFrame()
	body := append([]byte(nil), valid[:len(valid)-crc32.Size]...)
	h := len(testMagic) + 1
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"3 bytes", valid[:3], ErrTruncated},
		{"magic only", []byte(testMagic), ErrTruncated},
		{"header only", valid[:h], ErrTruncated},
		{"header and half a crc", valid[:h+2], ErrTruncated},
		{"bad magic", append([]byte("NOPE"), valid[4:]...), ErrBadMagic},
		{"bad magic, short", []byte("NOPE\x03"), ErrBadMagic},
		{"wrong version, valid crc", seal(append([]byte(testMagic+"\x7f"), body[h:]...)), ErrVersion},
		{"wrong version, short", []byte(testMagic + "\x7f"), ErrVersion},
		{"crc clipped", valid[:len(valid)-1], ErrChecksum},
		{"trailing byte, valid crc", seal(append(body[:len(body):len(body)], 0)), ErrCorrupt},
	}
	for _, tc := range cases {
		r := Open(tc.in, testMagic, testVersion)
		// Drain the sample's fields; a Reader that opened badly must stay
		// on its first error through all of them.
		r.Str()
		r.Uvarint()
		r.Varint()
		r.Flags(0x03)
		r.Blob()
		r.Blob()
		if err := r.Close(); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if r := Open(valid, "NOPE", testVersion); !errors.Is(r.Err(), ErrBadMagic) {
		t.Errorf("another format's magic: %v", r.Err())
	}
	// A bit flip under a stale CRC is a checksum failure wherever it lands.
	for i := h; i < len(valid); i++ {
		c := append([]byte(nil), valid...)
		c[i] ^= 0x10
		if r := Open(c, testMagic, testVersion); !errors.Is(r.Err(), ErrChecksum) {
			t.Errorf("flip at %d: got %v, want ErrChecksum", i, r.Err())
		}
	}
}

// TestReaderStrict pins the primitives: one value, one byte form, and no
// allocation sized by a count the bytes do not back.
func TestReaderStrict(t *testing.T) {
	overflow := append(bytes.Repeat([]byte{0xFF}, 9), 0x02) // 2^64
	maxInt := binary.AppendUvarint(nil, math.MaxInt)
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
		want error
	}{
		{"uvarint, empty", nil, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"uvarint, cut mid-value", []byte{0x80}, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"uvarint, non-minimal", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }, ErrCorrupt},
		{"uvarint, non-minimal zero", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, ErrCorrupt},
		{"uvarint, 10-byte overflow", overflow, func(r *Reader) { r.Uvarint() }, ErrCorrupt},
		{"varint, non-minimal", []byte{0x80, 0x00}, func(r *Reader) { r.Varint() }, ErrCorrupt},
		{"count, MaxInt", maxInt, func(r *Reader) { r.Count() }, nil},
		{"count, MaxInt+1", binary.AppendUvarint(nil, math.MaxInt+1), func(r *Reader) { r.Count() }, ErrCorrupt},
		{"int, MinInt", binary.AppendVarint(nil, math.MinInt), func(r *Reader) { r.Int() }, nil},
		{"len, beyond the bytes left", append(maxInt[:len(maxInt):len(maxInt)], 1, 2), func(r *Reader) { r.Len() }, ErrCorrupt},
		{"blob, beyond the bytes left", []byte{0x05, 1, 2}, func(r *Reader) { r.Blob() }, ErrCorrupt},
		{"str, beyond the bytes left", []byte{0x05, 1, 2}, func(r *Reader) { _ = r.Str() }, ErrCorrupt},
		{"flags, empty", nil, func(r *Reader) { r.Flags(0xFF) }, ErrTruncated},
		{"flags, unknown bit", []byte{0x05}, func(r *Reader) { r.Flags(0x03) }, ErrCorrupt},
		{"flags, known bits", []byte{0x03}, func(r *Reader) { r.Flags(0x03) }, nil},
	}
	for _, tc := range cases {
		r := Reader{b: tc.in}
		tc.read(&r)
		if err := r.Close(); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// A length the bytes do not back is refused before it sizes anything.
	huge := append(binary.AppendUvarint(nil, 1<<30), 1, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, read := range []func(r *Reader){
		func(r *Reader) { r.Blob() },
		func(r *Reader) { _ = r.Str() },
		func(r *Reader) { ReadLevels[byte](nil, r, nil, nil) },
	} {
		r := Reader{b: huge}
		if read(&r); !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("1 GiB length over 2 bytes: got %v, want ErrCorrupt", r.Err())
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
		t.Errorf("refusing three 1 GiB lengths allocated %d bytes", got)
	}

	// The first error latches: later reads return zero and leave it be.
	r := Reader{b: []byte{0x81, 0x00, 0x07, 0x01, 0x41}}
	r.Uvarint()
	first := r.Err()
	if v, s, bl, f := r.Uvarint(), r.Str(), r.Blob(), r.Flags(0xFF); v != 0 || s != "" || bl != nil || f != 0 {
		t.Errorf("reads after a failure returned %d %q %v %#x, want zeros", v, s, bl, f)
	}
	if r.Varint() != 0 || r.Count() != 0 || r.Int() != 0 || r.Len() != 0 {
		t.Error("integer reads after a failure returned non-zero")
	}
	r.Corruptf("a later complaint")
	if r.Close() != first || !errors.Is(first, ErrCorrupt) {
		t.Errorf("latched error changed: %v then %v", first, r.Close())
	}
}
