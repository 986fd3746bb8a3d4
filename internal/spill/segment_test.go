package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
	"simdtree/internal/wire"
)

var update = flag.Bool("update", false, "regenerate golden segment files")

const goldenPath = "testdata/golden_v1.sspl"

// sampleArena builds the deterministic arena every format test encodes:
// PE 1 holds four levels of synthetic nodes with distinct budgets/seeds.
func sampleArena() *stack.Arena[synthetic.Node] {
	a := stack.NewArena[synthetic.Node](4)
	a.PushLevel(1, []synthetic.Node{{Budget: 11, Seed: 1}, {Budget: 7, Seed: 2}, {Budget: 300, Seed: 3}})
	a.PushLevel(1, []synthetic.Node{{Budget: 5, Seed: 4}})
	a.PushLevel(1, []synthetic.Node{{Budget: 2, Seed: 5}, {Budget: 1, Seed: 6}})
	a.PushLevel(1, []synthetic.Node{{Budget: 9, Seed: 7}, {Budget: 128, Seed: 8}})
	return a
}

func encodeSample() []byte {
	return AppendSegment(nil, wire.SyntheticCodec{}, sampleArena(), 1, 42, 3)
}

// reencode frames decoded levels (nodes bottom level first, one count per
// level) from a fresh arena: the canonical form a decoded segment must
// reproduce byte for byte.
func reencode(pe int, seq uint64, nodes []synthetic.Node, counts []int) []byte {
	a := stack.NewArena[synthetic.Node](pe + 1)
	for _, n := range counts {
		a.PushLevel(pe, nodes[:n])
		nodes = nodes[n:]
	}
	return AppendSegment(nil, wire.SyntheticCodec{}, a, pe, seq, len(counts))
}

// TestSegmentRoundTrip checks that a segment decodes to exactly the
// levels it framed, and that re-encoding the decoded levels from a fresh
// arena reproduces the original bytes — the canonical-encoding property
// restoreNewest's verification relies on.  The decode appends to the
// caller's scratch and leaves what was already there alone.
func TestSegmentRoundTrip(t *testing.T) {
	codec := wire.SyntheticCodec{}
	b := encodeSample()
	scratch := []synthetic.Node{{Budget: 99, Seed: 99}}
	pe, seq, nodes, counts, err := DecodeSegment(codec, b, scratch, []int{7})
	if err != nil {
		t.Fatal(err)
	}
	if pe != 1 || seq != 42 {
		t.Fatalf("decoded pe=%d seq=%d, want 1, 42", pe, seq)
	}
	if nodes[0] != scratch[0] || counts[0] != 7 {
		t.Fatalf("decode overwrote the scratch prefix: %v %v", nodes[0], counts[0])
	}
	nodes, counts = nodes[1:], counts[1:]
	if len(nodes) != 6 || !reflect.DeepEqual(counts, []int{3, 1, 2}) {
		t.Fatalf("decoded %d nodes in levels %v, want 6 in [3 1 2]", len(nodes), counts)
	}
	if re := reencode(1, 42, nodes, counts); !bytes.Equal(re, b) {
		t.Fatalf("re-encode not canonical:\n in %x\nout %x", b, re)
	}
}

// reseal mutates the body of a valid segment and refreshes the CRC, so
// the mutation is tested on its own rather than shadowed by ErrChecksum.
func reseal(valid []byte, mutate func(body []byte) []byte) []byte {
	body := append([]byte(nil), valid[:len(valid)-crc32.Size]...)
	body = mutate(body)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestDecodeSegmentErrors exercises every classified failure: each
// malformed input maps to its sentinel, never to a panic.
func TestDecodeSegmentErrors(t *testing.T) {
	codec := wire.SyntheticCodec{}
	valid := encodeSample()
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"magic only", []byte(Magic), ErrTruncated},
		{"bad magic", append([]byte("NOPE"), valid[4:]...), ErrBadMagic},
		{"bad version", reseal(valid, func(b []byte) []byte { b[len(Magic)] = 0x7F; return b }), ErrVersion},
		{"crc clipped", valid[:len(valid)-1], ErrChecksum},
		{"bit flip stale crc", reseal(valid, func(b []byte) []byte { return b })[:len(valid)-2], ErrChecksum},
		{"trailing byte", reseal(valid, func(b []byte) []byte { return append(b, 0) }), ErrCorrupt},
		{"zero level count", reseal(valid, func(b []byte) []byte { b[len(Magic)+3] = 0; return b }), ErrCorrupt},
		{"level count beyond body", reseal(valid, func(b []byte) []byte { b[len(Magic)+3] = 0x7F; return b }), ErrCorrupt},
		{"truncated mid node", reseal(valid, func(b []byte) []byte { return b[:len(b)-3] }), ErrCorrupt},
		{"non-minimal pe", reseal(valid, func(b []byte) []byte {
			// pe 1 re-encoded as the two-byte 0x81 0x00.
			out := append([]byte(nil), b[:len(Magic)+1]...)
			out = append(out, 0x81, 0x00)
			return append(out, b[len(Magic)+2:]...)
		}), ErrCorrupt},
		// The level list is the shared wire framing, strict one level
		// further down than the segment's own fields: the bottom level's
		// node count 3 as 0x83 0x00, and its first node's budget 11
		// (zigzag 22) as 0x96 0x00.
		{"non-minimal node count", reseal(valid, func(b []byte) []byte {
			out := append([]byte(nil), b[:len(Magic)+4]...)
			out = append(out, 0x83, 0x00)
			return append(out, b[len(Magic)+5:]...)
		}), ErrCorrupt},
		{"non-minimal node budget", reseal(valid, func(b []byte) []byte {
			out := append([]byte(nil), b[:len(Magic)+5]...)
			out = append(out, 0x96, 0x00)
			return append(out, b[len(Magic)+6:]...)
		}), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, _, err := DecodeSegment(codec, tc.in, nil, nil)
			if !errors.Is(err, tc.want) {
				t.Fatalf("DecodeSegment = %v, want %v", err, tc.want)
			}
		})
	}
	// A bit flip with a stale CRC is caught by the checksum, whichever
	// byte it hits.
	for i := len(Magic) + 1; i < len(valid)-4; i++ {
		c := append([]byte(nil), valid...)
		c[i] ^= 0x10
		if _, _, _, _, err := DecodeSegment(codec, c, nil, nil); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: got %v, want ErrChecksum", i, err)
		}
	}
}

// TestGoldenCompatibility pins the v1 byte layout, mirroring the
// checkpoint format's golden test: any layout change must come with a
// Version bump, and old-version files must be rejected cleanly.
// Regenerate with `go test ./internal/spill -run Golden -update`.
func TestGoldenCompatibility(t *testing.T) {
	got := encodeSample()
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	const versionOff = len(Magic)
	if bytes.Equal(got, want) {
		pe, seq, nodes, counts, err := DecodeSegment(wire.SyntheticCodec{}, want, nil, nil)
		if err != nil {
			t.Fatalf("decoding golden file: %v", err)
		}
		if re := reencode(pe, seq, nodes, counts); !bytes.Equal(re, want) {
			t.Error("golden file does not re-encode byte-identically")
		}
		return
	}
	if got[versionOff] == want[versionOff] {
		t.Fatalf("segment layout changed but Version is still %d; bump Version, keep decoding v%d, and regenerate the golden file with -update",
			Version, want[versionOff])
	}
	if _, _, _, _, err := DecodeSegment(wire.SyntheticCodec{}, want, nil, nil); !errors.Is(err, ErrVersion) {
		t.Fatalf("old-version golden file decodes as %v, want ErrVersion", err)
	}
	t.Logf("note: Version bumped to %d; regenerate %s with -update once the new layout settles", Version, goldenPath)
}
