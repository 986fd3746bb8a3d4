package spill

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"simdtree/internal/simd"
	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
	"simdtree/internal/wire"
)

type (
	node  = synthetic.Node
	arena = stack.Arena[node]
)

// probe is the machine's Spiller in these tests: the Manager, with a hook
// before and after every residency call (Reset passes straight through).
// op is "barrier", "sweep" or "faultall".
type probe struct {
	*Manager[node]
	before func(op string, a *arena)
	after  func(op string, a *arena, err error)
}

func (p probe) call(op string, a *arena, f func() error) error {
	if p.before != nil {
		p.before(op, a)
	}
	err := f()
	if p.after != nil {
		p.after(op, a, err)
	}
	return err
}

func (p probe) Barrier(a *arena) error {
	return p.call("barrier", a, func() error { return p.Manager.Barrier(a) })
}

func (p probe) Sweep(a *arena) error {
	return p.call("sweep", a, func() error { return p.Manager.Sweep(a) })
}

func (p probe) FaultAll(a *arena, pe int) error {
	return p.call("faultall", a, func() error { return p.Manager.FaultAll(a, pe) })
}

// tightRun is TestSpillEquivalence's tight synthetic leg (three nodes per
// PE at P=256: constant eviction and fault traffic) with the manager
// behind a probe.  It returns the manager and what RunContext returned.
func tightRun(t *testing.T, hooks func(m *Manager[node]) probe) (*Manager[node], error) {
	t.Helper()
	const p = 256
	tree := synthetic.New(120000, 42)
	codec := wire.SyntheticCodec{}
	nodeBytes := wire.NodeSize[node](codec, tree.Root())
	budget := int64(nodeBytes) * p * 3
	sch, err := simd.ParseScheme[node]("GP-DK")
	if err != nil {
		t.Fatal(err)
	}
	m, err := simd.NewMachine[node](tree, sch, simd.Options{P: p, MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager[node](codec, Config{Dir: t.TempDir(), MemBudget: budget, NodeBytes: nodeBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	m.SetSpiller(hooks(mgr))
	_, err = m.RunContext(context.Background())
	return mgr, err
}

// liveBytes sums the frames currently in the log, and checkSlots verifies
// the allocator's books: every byte below the log's end belongs to exactly
// one live frame's slot or one free-list entry.
func liveBytes(m *Manager[node]) (live, slots int64) {
	for _, refs := range m.segs {
		for _, ref := range refs {
			live += int64(ref.size)
			slots += 1 << slotClass(ref.size)
		}
	}
	return live, slots
}

func checkSlots(t *testing.T, m *Manager[node]) {
	t.Helper()
	_, used := liveBytes(m)
	for c, f := range m.free {
		used += int64(len(f)) << c
	}
	if used != m.end {
		t.Fatalf("log ends at %d but live slots + free slots cover %d bytes", m.end, used)
	}
}

// readFrame reads the frame of ref out of the log and decodes it.
func readFrame(t *testing.T, m *Manager[node], ref segRef) (seq uint64, nodes []node, counts []int) {
	t.Helper()
	b := make([]byte, ref.size)
	if _, err := m.log.ReadAt(b, ref.off); err != nil {
		t.Fatal(err)
	}
	_, seq, nodes, counts, err := DecodeSegment[node](wire.SyntheticCodec{}, b, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return seq, nodes, counts
}

// peState is what a failed fault or eviction must leave alone.
type peState struct{ resident, ghost, depth int }

func stateOf(a *arena, pe int) peState {
	return peState{a.Resident(pe), a.Ghost(pe), a.Depth(pe)}
}

// TestLogSpace runs the >= 1000-eviction thrash and checks after every
// residency call that the log file stays within twice the peak of live
// frame bytes plus one largest slot — slot reuse works, the log does not
// grow with the eviction count — and that no frame outlives the run.
func TestLogSpace(t *testing.T) {
	var peak, maxSlot, maxFile int64
	mgr, err := tightRun(t, func(m *Manager[node]) probe {
		path := filepath.Join(m.Dir(), logName)
		return probe{Manager: m, after: func(_ string, _ *arena, err error) {
			if err != nil || m.log == nil {
				return
			}
			checkSlots(t, m)
			live, _ := liveBytes(m)
			if live > peak {
				peak = live
			}
			for c := range m.free {
				if s := int64(1) << c; s > maxSlot {
					maxSlot = s
				}
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() > maxFile {
				maxFile = fi.Size()
			}
			if fi.Size() > 2*peak+maxSlot {
				t.Fatalf("log is %d bytes with a live peak of %d and a largest slot of %d", fi.Size(), peak, maxSlot)
			}
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := mgr.Stats()
	if st.Evictions < 1000 {
		t.Fatalf("only %d evictions; the run proves nothing about reuse", st.Evictions)
	}
	if st.SegmentsLive != 0 {
		t.Errorf("%d frames still live after the run drained every stack", st.SegmentsLive)
	}
	if st.BytesWritten < 10*maxFile {
		t.Errorf("wrote %d bytes into a log that peaked at %d: too little reuse to tell", st.BytesWritten, maxFile)
	}
	t.Logf("%d evictions, %d bytes written, live peak %d, log peak %d", st.Evictions, st.BytesWritten, peak, maxFile)
}

// handArena is four PEs of five two-node levels each, and a manager whose
// budget (one node per PE) makes the first Sweep evict from every PE.
func handArena(t *testing.T) (*arena, *Manager[node]) {
	t.Helper()
	a := stack.NewArena[node](4)
	for pe := 0; pe < a.P(); pe++ {
		for l := 0; l < 5; l++ {
			a.PushLevel(pe, []node{{Budget: int64(l + 1), Seed: uint64(pe)}, {Budget: 1, Seed: 9}})
		}
	}
	mgr, err := NewManager[node](wire.SyntheticCodec{}, Config{Dir: t.TempDir(), MemBudget: 4, NodeBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return a, mgr
}

// TestResetRewindsLog: after a Reset nothing is live and the next
// eviction lands at offset 0 again, whatever the log held before.
func TestResetRewindsLog(t *testing.T) {
	a, mgr := handArena(t)
	if err := mgr.Sweep(a); err != nil {
		t.Fatal(err)
	}
	if mgr.Stats().SegmentsLive != a.P() || mgr.end == 0 {
		t.Fatalf("sweep left %d live frames, log end %d; want one per PE", mgr.Stats().SegmentsLive, mgr.end)
	}
	if err := mgr.Reset(); err != nil {
		t.Fatal(err)
	}
	if mgr.Stats().SegmentsLive != 0 || mgr.end != 0 {
		t.Fatalf("after Reset: %d live frames, log end %d", mgr.Stats().SegmentsLive, mgr.end)
	}
	// The machine replaced its state wholesale; so does the test.
	for pe := 0; pe < a.P(); pe++ {
		a.Clear(pe)
	}
	for l := 0; l < 4; l++ {
		a.PushLevel(2, []node{{Budget: 3, Seed: 3}, {Budget: 4, Seed: 4}})
	}
	if err := mgr.Sweep(a); err != nil {
		t.Fatal(err)
	}
	if len(mgr.segs[2]) != 1 || mgr.segs[2][0].off != 0 {
		t.Fatalf("first eviction after Reset: %+v, want one frame at offset 0", mgr.segs[2])
	}
	if err := mgr.FaultAll(a, 2); err != nil {
		t.Fatal(err)
	}
	if a.Ghost(2) != 0 || a.Resident(2) != 8 {
		t.Fatalf("restore after Reset: resident %d ghost %d, want 8, 0", a.Resident(2), a.Ghost(2))
	}
	checkSlots(t, mgr)
}

// TestClose: Close removes the log, is idempotent, and turns every later
// residency call into ErrClosed rather than a nil-file panic — with
// evicted frames outstanding, the case a caller could actually hit.
func TestClose(t *testing.T) {
	if _, idle := handArena(t); idle.Close() != nil {
		t.Fatal("Close before any eviction failed")
	}
	a, mgr := handArena(t)
	if err := mgr.Sweep(a); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(mgr.Dir(), logName)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no log after an eviction: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := mgr.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("log survives Close: %v", err)
	}
	before := stateOf(a, 1)
	for name, err := range map[string]error{
		"Barrier":  mgr.Barrier(a),
		"Sweep":    mgr.Sweep(a),
		"FaultAll": mgr.FaultAll(a, 1),
	} {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close = %v, want ErrClosed", name, err)
		}
	}
	if got := stateOf(a, 1); got != before {
		t.Errorf("calls after Close moved PE 1 from %+v to %+v", before, got)
	}
}

// TestRestoreVerifiesShape forges the one damage a run cannot stumble
// into: a frame with a valid checksum and the right PE and sequence number
// but not the levels that were evicted.  It must be refused before it
// reaches the arena.
func TestRestoreVerifiesShape(t *testing.T) {
	a, mgr := handArena(t)
	if err := mgr.Sweep(a); err != nil {
		t.Fatal(err)
	}
	const pe = 3
	ref := mgr.segs[pe][0]
	seq, nodes, counts := readFrame(t, mgr, ref)
	// Three levels of two re-shaped as two levels of four and two — one
	// count byte fewer — with one budget widened to a two-byte varint: the
	// same nodes in a frame of the same length.
	nodes[0].Budget = 100
	forged := reencode(pe, seq, nodes, []int{4, 2})
	if len(counts) != 3 || len(forged) != ref.size {
		t.Fatalf("evicted levels %v in %d bytes, forged %d bytes: the fixture no longer lines up", counts, ref.size, len(forged))
	}
	if _, err := mgr.log.WriteAt(forged, ref.off); err != nil {
		t.Fatal(err)
	}
	before := stateOf(a, pe)
	if err := mgr.FaultAll(a, pe); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("FaultAll = %v, want ErrCorrupt", err)
	}
	if got := stateOf(a, pe); got != before {
		t.Errorf("refused frame moved PE %d from %+v to %+v", pe, before, got)
	}
}

// TestFaultClassification damages the log between an eviction and its
// fault, inside a real run — at the first Barrier that is about to restore
// a frame, that frame — and checks the three things the restore path
// owes its caller: RunContext returns the classified error, the PE whose
// frame was damaged is exactly as it was before the failing call, and the
// allocator's books still balance.  The write leg closes the file under
// the manager instead: the failed eviction must give its slot back and
// drop nothing from the arena.
func TestFaultClassification(t *testing.T) {
	cases := []struct {
		name string
		want error
		// sabotage damages the frame ref of PE pe in the log.
		sabotage func(t *testing.T, m *Manager[node], pe int, ref segRef)
	}{
		{"flipped byte", ErrChecksum, func(t *testing.T, m *Manager[node], pe int, ref segRef) {
			b := make([]byte, 1)
			at := ref.off + int64(ref.size)/2
			if _, err := m.log.ReadAt(b, at); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x20
			if _, err := m.log.WriteAt(b, at); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated log", ErrTruncated, func(t *testing.T, m *Manager[node], pe int, ref segRef) {
			if err := os.Truncate(m.log.Name(), ref.off+int64(ref.size)-1); err != nil {
				t.Fatal(err)
			}
		}},
		{"another PE's frame in the slot", ErrCorrupt, func(t *testing.T, m *Manager[node], pe int, ref segRef) {
			seq, nodes, counts := readFrame(t, m, ref)
			// A valid frame of the same levels, sealed under another PE.
			if _, err := m.log.WriteAt(reencode(pe+1, seq, nodes, counts), ref.off); err != nil {
				t.Fatal(err)
			}
		}},
		{"another eviction in the slot", ErrCorrupt, func(t *testing.T, m *Manager[node], pe int, ref segRef) {
			seq, nodes, counts := readFrame(t, m, ref)
			if _, err := m.log.WriteAt(reencode(pe, seq+1, nodes, counts), ref.off); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			victim := -1
			var before peState
			_, err := tightRun(t, func(m *Manager[node]) probe {
				return probe{Manager: m,
					before: func(op string, a *arena) {
						if op != "barrier" || victim >= 0 {
							return
						}
						// The first PE this Barrier will restore.
						for pe, refs := range m.segs {
							if len(refs) > 0 && a.Ghost(pe) > 0 && a.Resident(pe) == 0 {
								victim, before = pe, stateOf(a, pe)
								tc.sabotage(t, m, pe, refs[len(refs)-1])
								return
							}
						}
					},
					after: func(_ string, a *arena, err error) {
						if err == nil {
							return
						}
						if got := stateOf(a, victim); got != before {
							t.Errorf("failed fault moved PE %d from %+v to %+v", victim, before, got)
						}
						checkSlots(t, m)
					},
				}
			})
			if victim < 0 {
				t.Fatal("no Barrier ever restored a frame")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("RunContext = %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("failed write", func(t *testing.T) {
		var before []peState
		closed := false
		_, err := tightRun(t, func(m *Manager[node]) probe {
			return probe{Manager: m,
				before: func(op string, a *arena) {
					if op != "sweep" || m.log == nil || closed {
						return
					}
					total, victim := 0, false
					for pe := 0; pe < a.P(); pe++ {
						total += a.Resident(pe)
						victim = victim || a.ResidentDepth(pe) > m.keep
					}
					if total <= m.budgetNodes || !victim {
						return
					}
					// This Sweep will evict; its WriteAt fails with os.ErrClosed.
					closed = true
					m.log.Close()
					for pe := 0; pe < a.P(); pe++ {
						before = append(before, stateOf(a, pe))
					}
				},
				after: func(_ string, a *arena, err error) {
					if err == nil {
						return
					}
					for pe := 0; pe < a.P(); pe++ {
						if got := stateOf(a, pe); got != before[pe] {
							t.Errorf("failed eviction moved PE %d from %+v to %+v", pe, before[pe], got)
						}
					}
					checkSlots(t, m)
				},
			}
		})
		if !closed {
			t.Fatal("no Sweep evicted after the log was opened")
		}
		if !errors.Is(err, os.ErrClosed) {
			t.Fatalf("RunContext = %v, want os.ErrClosed", err)
		}
	})
}
