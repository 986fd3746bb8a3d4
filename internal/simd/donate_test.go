package simd

import (
	"reflect"
	"testing"

	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
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
	s := stack.New(node(0), node(1), node(2), node(3))
	s.PushLevel([]synthetic.Node{node(4), node(5)})
	s.PushLevel([]synthetic.Node{node(6)})
	if err := m.InstallStack(0, s); err != nil {
		t.Fatal(err)
	}
	if err := m.InstallStack(2, stack.New(node(7))); err != nil {
		t.Fatal(err)
	}
	return m
}

// levelsOf returns a stack's levels as copies.
func levelsOf(s *stack.Stack[synthetic.Node]) (out [][]synthetic.Node) {
	s.ForEachLevel(func(lv []synthetic.Node) { out = append(out, append([]synthetic.Node(nil), lv...)) })
	return out
}

// TestDonateIsTheLocalTransfer pins the claim Donate's byte-identity rests
// on: for every splitter, the donation lifted out of the donor machine and
// the donor's remainder are exactly what TransferLocal leaves on the
// receiver and the donor of a twin machine — and the donor machine's
// receiver slot is empty again afterwards, flags included.
func TestDonateIsTheLocalTransfer(t *testing.T) {
	splitters := []stack.Splitter[synthetic.Node]{
		stack.BottomNode[synthetic.Node]{}, stack.HalfStack[synthetic.Node]{}, stack.TopNode[synthetic.Node]{},
	}
	for _, sp := range splitters {
		twin := donorMachine(t, sp)
		moved, err := twin.TransferLocal(0, 1)
		if err != nil || moved == 0 {
			t.Fatalf("%s: twin transfer moved %d, err %v", sp.Name(), moved, err)
		}

		m := donorMachine(t, sp)
		d, err := m.Donate(7, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name(), err)
		}
		if d.ID != 7 || d.From != 0 || d.To != 1 || d.Stack.Size() != moved {
			t.Fatalf("%s: donation %d %d->%d of %d nodes, want 7 0->1 of %d", sp.Name(), d.ID, d.From, d.To, d.Stack.Size(), moved)
		}
		if got, want := levelsOf(d.Stack), levelsOf(twin.StackAt(1)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: donated levels %v, local transfer delivered %v", sp.Name(), got, want)
		}
		if got, want := levelsOf(m.StackAt(0)), levelsOf(twin.StackAt(0)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: donor remainder %v, local transfer left %v", sp.Name(), got, want)
		}
		a := m.Arena()
		if !a.Empty(1) || a.WorkBits().Get(1) || a.SplitBits().Get(1) {
			t.Errorf("%s: receiver slot not empty on the donor machine after the lift (%d nodes)", sp.Name(), a.Size(1))
		}
		if a.SplitBits().Get(0) != a.Splittable(0) || !a.WorkBits().Get(0) {
			t.Errorf("%s: donor flags stale after the donation", sp.Name())
		}
	}
}

// TestDonateRefusesBadTarget checks the classified refusals: an occupied
// receiver slot, an out-of-range receiver and an out-of-range donor are
// errors, and each leaves every stack of the machine exactly as it was.
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
		var before [][][]synthetic.Node
		for pe := 0; pe < 4; pe++ {
			before = append(before, levelsOf(m.StackAt(pe)))
		}
		d, err := m.Donate(1, c.from, c.to)
		if err == nil {
			t.Errorf("%s: Donate(%d->%d) succeeded with %d nodes", c.name, c.from, c.to, d.Stack.Size())
		}
		for pe := 0; pe < 4; pe++ {
			if got := levelsOf(m.StackAt(pe)); !reflect.DeepEqual(got, before[pe]) {
				t.Errorf("%s: refused donation changed PE %d: %v -> %v", c.name, pe, before[pe], got)
			}
		}
	}
}

// TestDonateUnsplittableDonor: a donor with a single node keeps it and
// hands back an empty donation without error.
func TestDonateUnsplittableDonor(t *testing.T) {
	m := donorMachine(t, stack.BottomNode[synthetic.Node]{})
	d, err := m.Donate(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Stack == nil || d.Stack.Size() != 0 {
		t.Errorf("unsplittable donor donated %v", d.Stack)
	}
	if m.Arena().Size(2) != 1 || !m.Arena().Empty(3) {
		t.Errorf("unsplittable donation moved work: donor %d, target %d", m.Arena().Size(2), m.Arena().Size(3))
	}
}

// TestTransferLocalRefusesBusyReceiver: a driven transfer, like Absorb,
// needs an idle receiver.  Onto a busy PE — the donor itself included,
// which used to move its bottom node to its own top and report "moved 1"
// — it is an error that leaves every stack in its exact order.
func TestTransferLocalRefusesBusyReceiver(t *testing.T) {
	splitters := []stack.Splitter[synthetic.Node]{
		stack.BottomNode[synthetic.Node]{}, stack.HalfStack[synthetic.Node]{}, stack.TopNode[synthetic.Node]{},
	}
	for _, sp := range splitters {
		for _, to := range []int{0, 2} {
			m := donorMachine(t, sp)
			var before [][][]synthetic.Node
			for pe := 0; pe < 4; pe++ {
				before = append(before, levelsOf(m.StackAt(pe)))
			}
			if moved, err := m.TransferLocal(0, to); err == nil {
				t.Errorf("%s: TransferLocal(0->%d) onto a busy PE moved %d nodes without error", sp.Name(), to, moved)
			}
			for pe := 0; pe < 4; pe++ {
				if got := levelsOf(m.StackAt(pe)); !reflect.DeepEqual(got, before[pe]) {
					t.Errorf("%s: refused transfer 0->%d changed PE %d: %v -> %v", sp.Name(), to, pe, before[pe], got)
				}
			}
		}
	}
}
