package spill

import (
	"bytes"
	"testing"

	"simdtree/internal/wire"
)

// FuzzDecodeSpillSegment hammers the strict segment decoder: any input
// either decodes cleanly or returns a classified error — never a panic,
// never an unbounded allocation.  A successful decode must be canonical:
// re-encoding the decoded levels reproduces the input byte for byte.
func FuzzDecodeSpillSegment(f *testing.F) {
	valid := encodeSample()
	f.Add([]byte(nil))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                 // truncated
	f.Add(valid[:len(valid)-1])                 // CRC clipped
	f.Add(append([]byte("NOPE"), valid[4:]...)) // bad magic
	f.Add([]byte(Magic))                        // magic only
	f.Add(reseal(valid, func(b []byte) []byte { // wrong version, valid CRC
		b[len(Magic)] = 0x7F
		return b
	}))
	f.Add(reseal(valid, func(b []byte) []byte { // trailing byte, valid CRC
		return append(b, 0x00)
	}))
	f.Add(reseal(valid, func(b []byte) []byte { // body bit flip, valid CRC
		b[len(b)/2] ^= 0x40
		return b
	}))

	codec := wire.SyntheticCodec{}
	f.Fuzz(func(t *testing.T, data []byte) {
		pe, seq, nodes, counts, err := DecodeSegment(codec, data, nil, nil)
		if err != nil {
			return
		}
		if pe >= 1<<12 {
			// Re-encoding needs an arena of pe+1 PEs; skip absurd sizes —
			// the decode itself already proved panic-freedom.
			return
		}
		if re := reencode(pe, seq, nodes, counts); !bytes.Equal(re, data) {
			t.Fatalf("decode→encode not canonical:\n in %x\nout %x", data, re)
		}
	})
}
