package steal

import (
	"bytes"
	"testing"
)

// FuzzDecodeStealFrame asserts the frame decoder's hostile-input
// contract: it never panics, and whatever it accepts re-encodes to the
// exact input bytes (the format is canonical, so a frame relayed through
// decode/encode is byte-identical).
func FuzzDecodeStealFrame(f *testing.F) {
	seed := func(fr *Frame) {
		b, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(validFrame())
	seed(&Frame{Codec: "synthetic", Stack: []byte{0}})
	seed(&Frame{Key: "deadbeef", Codec: "queens", Donation: 1 << 40, Cycle: 99, From: 7, To: 8,
		Stack: []byte{1, 2, 3}})
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		if err != nil {
			return
		}
		again, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", b, again)
		}
	})
}
