package steal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

func validFrame() *Frame {
	return &Frame{
		Key:      "0123456789abcdef",
		Codec:    "puzzle",
		Donation: 7,
		Cycle:    1234,
		From:     3,
		To:       61,
		Stack:    []byte{2, 3, 1, 2, 3, 2, 9, 9},
	}
}

// refix recomputes the CRC trailer after a mutation, so the test reaches
// the structural validation behind the checksum.
func refix(b []byte) []byte {
	body := b[:len(b)-crc32.Size]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range []*Frame{
		validFrame(),
		{Key: "", Codec: "synthetic", Donation: 0, Cycle: 0, From: 0, To: 0, Stack: []byte{0}},
		{Key: "k", Codec: "queens", Donation: 1<<63 + 5, Cycle: 1 << 40, From: 1023, To: 0,
			Stack: bytes.Repeat([]byte{7}, 300)},
	} {
		b, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode %+v: %v", f, err)
		}
		got, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Errorf("round trip changed the frame:\n got %+v\nwant %+v", got, f)
		}
		again, err := EncodeFrame(got)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Errorf("re-encoding is not canonical:\n got %x\nwant %x", again, b)
		}
	}
}

func TestEncodeFrameRejects(t *testing.T) {
	if _, err := EncodeFrame(nil); err == nil {
		t.Error("nil frame accepted")
	}
	f := validFrame()
	f.Stack = nil
	if _, err := EncodeFrame(f); err == nil {
		t.Error("empty stack payload accepted")
	}
	f = validFrame()
	f.Cycle = -1
	if _, err := EncodeFrame(f); err == nil {
		t.Error("negative cycle accepted")
	}
	f = validFrame()
	f.From = -2
	if _, err := EncodeFrame(f); err == nil {
		t.Error("negative donor accepted")
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	valid, err := EncodeFrame(validFrame())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short", valid[:3], ErrTruncated},
		{"bad magic", append([]byte("XXXX"), valid[4:]...), ErrBadMagic},
		{"bad version", refix(append(append([]byte(nil), valid[:4]...), append([]byte{99}, valid[5:]...)...)), ErrVersion},
		{"flipped bit", flip(valid, 10), ErrChecksum},
		{"truncated body", valid[:len(valid)-6], ErrChecksum},
		{"trailing bytes", refix(append(append([]byte(nil), valid[:len(valid)-4]...), 0xee)), ErrCorrupt},
		{"unknown flags", mutateFlags(t, valid, 0x80), ErrCorrupt},
		// Bit 0 once announced a domain-state blob, which no driver shipped.
		{"retired domain-state flag", mutateFlags(t, valid, 0x01), ErrCorrupt},
		{"oversized", make([]byte, MaxFrameSize+1), ErrCorrupt},
	}
	for _, tc := range cases {
		if _, err := DecodeFrame(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// appendBlob appends a uvarint-length-prefixed byte blob, spelling the
// frame's prefix by hand so the vectors below do not depend on the encoder.
func appendBlob(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 1
	return c
}

// mutateFlags locates the flags byte of a known valid frame (the byte
// just before the stack blob) and ORs bits into it, refixing the CRC.
func mutateFlags(t *testing.T, valid []byte, bits byte) []byte {
	t.Helper()
	f := validFrame()
	// Re-derive the flag offset by re-encoding the prefix.
	prefix := []byte(Magic)
	prefix = append(prefix, Version)
	prefix = appendBlob(prefix, []byte(f.Key))
	prefix = appendBlob(prefix, []byte(f.Codec))
	prefix = binary.AppendUvarint(prefix, f.Donation)
	prefix = binary.AppendUvarint(prefix, uint64(f.Cycle))
	prefix = binary.AppendUvarint(prefix, uint64(f.From))
	prefix = binary.AppendUvarint(prefix, uint64(f.To))
	if !bytes.HasPrefix(valid, prefix) {
		t.Fatal("prefix mismatch; frame layout changed")
	}
	c := append([]byte(nil), valid...)
	c[len(prefix)] |= bits
	return refix(c)
}

func TestDecodeFrameNonMinimalVarint(t *testing.T) {
	f := validFrame()
	// Hand-build the frame with a non-minimal donation varint (0x87 0x00
	// encodes 7 in two bytes).
	b := []byte(Magic)
	b = append(b, Version)
	b = appendBlob(b, []byte(f.Key))
	b = appendBlob(b, []byte(f.Codec))
	b = append(b, 0x87, 0x00) // donation = 7, non-minimal
	b = binary.AppendUvarint(b, uint64(f.Cycle))
	b = binary.AppendUvarint(b, uint64(f.From))
	b = binary.AppendUvarint(b, uint64(f.To))
	b = append(b, 0)
	b = appendBlob(b, f.Stack)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	if _, err := DecodeFrame(b); !errors.Is(err, ErrCorrupt) {
		t.Errorf("non-minimal varint: got %v, want %v", err, ErrCorrupt)
	}
}
