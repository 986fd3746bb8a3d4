package simd

import (
	"reflect"
	"testing"

	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
	"simdtree/internal/wire"
)

// donorMachine builds a 4-PE machine at a cycle boundary with a
// three-level stack on PE 0, a single node on PE 2, and PEs 1 and 3 idle.
func donorMachine(t *testing.T, sp stack.Splitter[synthetic.Node]) *Machine[synthetic.Node] {
	t.Helper()
	sch, err := ParseScheme[synthetic.Node]("GP-DK")
	if err != nil {
		t.Fatal(err)
	}
	sch.Splitter = sp
	m, err := NewMachine[synthetic.Node](synthetic.New(1000, 1), sch, Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	node := func(i int) synthetic.Node { return synthetic.Node{Budget: int64(10 + i), Seed: uint64(i)} }
	a := m.Arena()
	a.Clear(0) // the root NewMachine seeded
	a.PushLevel(0, []synthetic.Node{node(0), node(1), node(2), node(3)})
	a.PushLevel(0, []synthetic.Node{node(4), node(5)})
	a.PushLevel(0, []synthetic.Node{node(6)})
	a.PushLevel(2, []synthetic.Node{node(7)})
	return m
}

// levelsOf returns the levels of PE pe's stack as copies.
func levelsOf(m *Machine[synthetic.Node], pe int) (out [][]synthetic.Node) {
	m.Arena().ForEachLevel(pe, func(lv []synthetic.Node) { out = append(out, append([]synthetic.Node(nil), lv...)) })
	return out
}

// allLevels is levelsOf for every PE of a donorMachine.
func allLevels(m *Machine[synthetic.Node]) (out [][][]synthetic.Node) {
	for pe := 0; pe < 4; pe++ {
		out = append(out, levelsOf(m, pe))
	}
	return out
}

// TestDonateIsTheLocalTransfer pins the claim a donation's byte-identity
// rests on: for every splitter, what the shard host lifts out of the donor
// machine — the split into the idle target slot, encoded and cleared — and
// a peer machine decodes into its own PE, and the donor's remainder, are
// exactly what TransferLocal leaves on the receiver and the donor of a twin
// machine — and the donor machine's receiver slot is empty again
// afterwards, flags included.
func TestDonateIsTheLocalTransfer(t *testing.T) {
	splitters := []stack.Splitter[synthetic.Node]{
		stack.BottomNode[synthetic.Node]{}, stack.HalfStack[synthetic.Node]{}, stack.TopNode[synthetic.Node]{},
	}
	codec := wire.SyntheticCodec{}
	for _, sp := range splitters {
		twin := donorMachine(t, sp)
		moved, err := twin.TransferLocal(0, 1)
		if err != nil || moved == 0 {
			t.Fatalf("%s: twin transfer moved %d, err %v", sp.Name(), moved, err)
		}

		m := donorMachine(t, sp)
		a := m.Arena()
		if n, err := m.TransferLocal(0, 1); err != nil || n != moved {
			t.Fatalf("%s: split into the slot moved %d, err %v, want %d", sp.Name(), n, err, moved)
		}
		payload := wire.EncodeArena[synthetic.Node](nil, codec, a, 1)
		a.Clear(1)

		peer := donorMachine(t, sp)
		dec := wire.ArenaDecoder[synthetic.Node]{Codec: codec}
		if n, err := dec.Decode(payload, peer.Arena(), 1); err != nil || n != moved {
			t.Fatalf("%s: peer absorbed %d nodes, err %v, want %d", sp.Name(), n, err, moved)
		}
		if got, want := levelsOf(peer, 1), levelsOf(twin, 1); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: donated levels %v, local transfer delivered %v", sp.Name(), got, want)
		}
		if got, want := levelsOf(m, 0), levelsOf(twin, 0); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: donor remainder %v, local transfer left %v", sp.Name(), got, want)
		}
		if !a.Empty(1) || a.WorkBits().Get(1) || a.SplitBits().Get(1) {
			t.Errorf("%s: receiver slot not empty on the donor machine after the lift (%d nodes)", sp.Name(), a.Size(1))
		}
		if a.SplitBits().Get(0) != a.Splittable(0) || !a.WorkBits().Get(0) {
			t.Errorf("%s: donor flags stale after the donation", sp.Name())
		}
		if pa := peer.Arena(); !pa.WorkBits().Get(1) || pa.SplitBits().Get(1) != (moved >= 2) {
			t.Errorf("%s: receiver flags stale after the absorb", sp.Name())
		}
	}
}

// TestDonateRefusesBadTarget checks the classified refusals of the split
// into a slot: an occupied receiver slot, an out-of-range receiver and an
// out-of-range donor are errors, and each leaves every stack of the machine
// exactly as it was.
func TestDonateRefusesBadTarget(t *testing.T) {
	for _, c := range []struct {
		name     string
		from, to int
	}{
		{"occupied target", 0, 2},
		{"donor is the target", 0, 0},
		{"target past P", 0, 4},
		{"negative target", 0, -1},
		{"donor past P", 4, 1},
	} {
		m := donorMachine(t, stack.BottomNode[synthetic.Node]{})
		before := allLevels(m)
		if n, err := m.TransferLocal(c.from, c.to); err == nil {
			t.Errorf("%s: TransferLocal(%d->%d) succeeded with %d nodes", c.name, c.from, c.to, n)
		}
		if got := allLevels(m); !reflect.DeepEqual(got, before) {
			t.Errorf("%s: refused donation changed the stacks: %v -> %v", c.name, before, got)
		}
	}
}

// TestDonateUnsplittableDonor: a donor with a single node keeps it and
// leaves the target slot empty, without error.
func TestDonateUnsplittableDonor(t *testing.T) {
	m := donorMachine(t, stack.BottomNode[synthetic.Node]{})
	if n, err := m.TransferLocal(2, 3); err != nil || n != 0 {
		t.Fatalf("unsplittable donor moved %d nodes, err %v", n, err)
	}
	if m.Arena().Size(2) != 1 || !m.Arena().Empty(3) {
		t.Errorf("unsplittable donation moved work: donor %d, target %d", m.Arena().Size(2), m.Arena().Size(3))
	}
}

// TestTransferLocalRefusesBusyReceiver: a driven transfer, like the shard
// host's absorb, needs an idle receiver.  Onto a busy PE — the donor itself
// included, which used to move its bottom node to its own top and report
// "moved 1" — it is an error that leaves every stack in its exact order.
func TestTransferLocalRefusesBusyReceiver(t *testing.T) {
	splitters := []stack.Splitter[synthetic.Node]{
		stack.BottomNode[synthetic.Node]{}, stack.HalfStack[synthetic.Node]{}, stack.TopNode[synthetic.Node]{},
	}
	for _, sp := range splitters {
		for _, to := range []int{0, 2} {
			m := donorMachine(t, sp)
			before := allLevels(m)
			if moved, err := m.TransferLocal(0, to); err == nil {
				t.Errorf("%s: TransferLocal(0->%d) onto a busy PE moved %d nodes without error", sp.Name(), to, moved)
			}
			if got := allLevels(m); !reflect.DeepEqual(got, before) {
				t.Errorf("%s: refused transfer 0->%d changed the stacks: %v -> %v", sp.Name(), to, before, got)
			}
		}
	}
}
