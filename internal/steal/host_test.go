package steal

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"simdtree/internal/simd"
	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
	"simdtree/internal/wire"
)

// TestHostRefusedPayloadLeavesPEAlone: a steal frame's stack decodes
// straight into the addressed PE, so a payload the decoder refuses must
// not leave half a stack there.  Every non-canonical spelling gets the
// classified error it always got, from Absorb and from NewHost alike; the
// target stays idle, flags and export included; and the host's decode
// scratch carries nothing from a refused frame into the next good one.
func TestHostRefusedPayloadLeavesPEAlone(t *testing.T) {
	codec := wire.SyntheticCodec{}
	src := stack.NewArena[synthetic.Node](2)
	src.PushLevel(0, []synthetic.Node{{Budget: 11, Seed: 1}, {Budget: 7, Seed: 2}})
	src.PushLevel(0, []synthetic.Node{{Budget: 5, Seed: 3}})
	valid := wire.EncodeArena[synthetic.Node](nil, codec, src, 0)
	empty := wire.EncodeArena[synthetic.Node](nil, codec, src, 1)
	splice := func(at int, with ...byte) []byte {
		out := append([]byte(nil), valid[:at]...)
		return append(append(out, with...), valid[at+1:]...)
	}
	bad := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"cut varint", []byte{0x80}, ErrTruncated},
		{"cut mid node", valid[:len(valid)-3], ErrCorrupt},
		{"trailing byte", append(valid[:len(valid):len(valid)], 0), ErrCorrupt},
		{"non-minimal level count", splice(0, 0x82, 0x00), ErrCorrupt},
		{"zero node count in the second level", splice(len(valid)-10, 0x00), ErrCorrupt},
		{"non-minimal budget in the last node", splice(len(valid)-9, 0x8A, 0x00), ErrCorrupt},
	}
	newHost := func(pe1 []byte) (Host, error) {
		return NewHost[synthetic.Node](synthetic.New(1000, 1), codec, "GP-DK", simd.Options{P: 8}, 0, 4,
			[][]byte{valid, pe1, empty, empty}, nil)
	}
	h, err := newHost(empty)
	if err != nil {
		t.Fatal(err)
	}
	frame := func(to int, payload []byte) []byte {
		b, err := EncodeFrame(&Frame{Key: "k", Codec: codec.Name(), Donation: 1, From: 5, To: to, Stack: payload})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	idle := func(when string) {
		t.Helper()
		busy, idle := h.Flags()
		stacks, _, err := h.Export()
		if err != nil {
			t.Fatal(err)
		}
		if busy[1] || !idle[1] || !bytes.Equal(stacks[1], empty) {
			t.Errorf("%s: PE 1 busy=%v idle=%v, exports %x; want it idle and empty", when, busy[1], idle[1], stacks[1])
		}
		if !bytes.Equal(stacks[0], valid) {
			t.Errorf("%s: PE 0 now exports %x", when, stacks[0])
		}
	}
	for _, tc := range bad {
		if n, err := h.Absorb(frame(1, tc.payload)); !errors.Is(err, tc.want) || n != 0 {
			t.Errorf("%s: Absorb = %d, %v; want 0, %v", tc.name, n, err, tc.want)
		}
		idle(tc.name)
		if _, err := newHost(tc.payload); !errors.Is(err, tc.want) {
			t.Errorf("%s: NewHost = %v, want %v", tc.name, err, tc.want)
		}
	}
	if n, err := h.Absorb(frame(1, valid)); err != nil || n != 3 {
		t.Fatalf("valid frame after the refusals: %d, %v", n, err)
	}
	if stacks, _, _ := h.Export(); !bytes.Equal(stacks[1], valid) {
		t.Errorf("absorbed stack exports %x, want %x", stacks[1], valid)
	}
	// A busy target is refused before anything is decoded above its top.
	if n, err := h.Absorb(frame(1, valid)); err == nil || !strings.Contains(err.Error(), "not idle") || n != 0 {
		t.Errorf("absorb onto a busy PE = %d, %v", n, err)
	}
	if stacks, _, _ := h.Export(); !bytes.Equal(stacks[1], valid) {
		t.Errorf("refused absorb changed the busy PE: %x", stacks[1])
	}
	if _, err := h.Absorb(frame(6, valid)); err == nil {
		t.Error("absorb outside the shard range accepted")
	}
}

// TestHostSplitLiftsTheSlot: Split is the local transfer into the target
// slot, encoded and cleared: the payload is the donor's bottom node, the
// slot (outside the shard's range) is idle again, and an unsplittable
// donor ships nothing.
func TestHostSplitLiftsTheSlot(t *testing.T) {
	codec := wire.SyntheticCodec{}
	src := stack.NewArena[synthetic.Node](3)
	src.PushLevel(0, []synthetic.Node{{Budget: 11, Seed: 1}, {Budget: 7, Seed: 2}})
	src.PushLevel(0, []synthetic.Node{{Budget: 5, Seed: 3}})
	src.PushLevel(1, []synthetic.Node{{Budget: 9, Seed: 4}})
	src.PushLevel(2, []synthetic.Node{{Budget: 11, Seed: 1}})
	enc := func(pe int) []byte { return wire.EncodeArena[synthetic.Node](nil, codec, src, pe) }
	h, err := NewHost[synthetic.Node](synthetic.New(1000, 1), codec, "GP-DK", simd.Options{P: 8}, 0, 2, [][]byte{enc(0), enc(1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, n, err := h.Split(1, 0, 5)
	if err != nil || n != 1 || !bytes.Equal(payload, enc(2)) {
		t.Fatalf("Split = %x, %d, %v; want the bottom node %x", payload, n, err, enc(2))
	}
	if a := h.(*host[synthetic.Node]).m.Arena(); !a.Empty(5) || a.WorkBits().Get(5) || a.Size(0) != 2 {
		t.Errorf("after the lift: slot holds %d nodes, donor %d", a.Size(5), a.Size(0))
	}
	if payload, n, err := h.Split(2, 1, 5); payload != nil || n != 0 || err != nil {
		t.Errorf("unsplittable donor: %x, %d, %v", payload, n, err)
	}
	if _, _, err := h.Split(3, 0, 1); err == nil {
		t.Error("split onto a busy PE accepted")
	}
}
