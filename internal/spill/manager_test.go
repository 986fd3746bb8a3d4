package spill

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
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

// checkLog verifies the log's books: the live refs are disjoint and lie
// below the log's end, and the live-byte and live-frame counters are
// their sums; and the read window, if there is one, lies below the end and
// holds the bytes the log file holds there.
func checkLog(t *testing.T, m *Manager[node]) {
	t.Helper()
	var refs []segRef
	for _, rs := range m.segs {
		refs = append(refs, rs...)
	}
	slices.SortFunc(refs, func(x, y segRef) int { return cmp.Compare(x.off, y.off) })
	var live, next int64
	for _, ref := range refs {
		if ref.off < next {
			t.Fatalf("frame seq %d at [%d, %d) overlaps the frame before it, which ends at %d",
				ref.seq, ref.off, ref.off+int64(ref.size), next)
		}
		next = ref.off + int64(ref.size)
		live += int64(ref.size)
	}
	if next > m.end {
		t.Fatalf("a live frame ends at %d, past the log's end %d", next, m.end)
	}
	if live != m.liveBytes || len(refs) != m.live {
		t.Fatalf("live frames are %d in %d bytes, the counters say %d in %d", len(refs), live, m.live, m.liveBytes)
	}
	if len(m.win) == 0 {
		return
	}
	lo, hi := m.winOff, m.winOff+int64(len(m.win))
	if m.log == nil || lo < 0 || hi > m.end {
		t.Fatalf("read window [%d, %d) outlives the log's [0, %d): a change to the log did not drop it", lo, hi, m.end)
	}
	// Read the file itself, not through the logFile seam a test may count.
	f, err := os.Open(m.log.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	disk := make([]byte, len(m.win))
	if _, err := f.ReadAt(disk, lo); err != nil {
		t.Fatalf("reading the window's span [%d, %d) of the log: %v", lo, hi, err)
	}
	if !bytes.Equal(disk, m.win) {
		t.Fatalf("read window [%d, %d) no longer holds the log's bytes: a change to the log did not drop it", lo, hi)
	}
}

// logSwitches counts the times the manager's log file was replaced, that
// is its compactions into a fresh file, as seen at successive calls.
type logSwitches struct {
	last logFile
	n    int
}

func (s *logSwitches) observe(m *Manager[node]) {
	if m.log != s.last {
		if s.last != nil && m.log != nil {
			s.n++
		}
		s.last = m.log
	}
}

// openFDs counts the process's open descriptors; it returns -1 where
// /proc/self/fd does not exist.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
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

// TestLogSpace runs the >= 1000-eviction thrash and checks with os.Stat
// after every residency call that the log file stays within twice the
// peak of live frame bytes plus the compaction floor plus the largest
// sweep's batch — compaction works, the log does not grow with the
// eviction count — that it is the only segment file, that the run
// compacted and no frame outlives it, and, counting calls through the
// logFile seam, that every sweep which evicts without compacting writes
// once and every other call not at all, and that the Barriers and
// FaultAlls together read no more often than once per Barrier that
// restores plus once per frame a FaultAll restores from outside the read
// window.
func TestLogSpace(t *testing.T) {
	var peak, maxBatch, maxFile, written, evicted, faults int64
	var calls logCalls
	var sweeps, reads, barriers, misses int
	var switches logSwitches
	var log logFile
	// Per PE at the start of a FaultAll: its live frames, and how many of
	// them lie outside the read window.
	var live, outside []int
	mgr, err := tightRun(t, func(m *Manager[node]) probe {
		countLog(m, &calls)
		return probe{Manager: m,
			before: func(op string, _ *arena) {
				written, evicted, faults, calls, log = m.stats.BytesWritten, m.stats.Evictions, m.stats.Faults, logCalls{}, m.log
				if op != "faultall" {
					return
				}
				live, outside = live[:0], outside[:0]
				for _, refs := range m.segs {
					out := 0
					for _, r := range refs {
						if r.off < m.winOff || r.end() > m.winOff+int64(len(m.win)) {
							out++
						}
					}
					live, outside = append(live, len(refs)), append(outside, out)
				}
			},
			after: func(op string, _ *arena, err error) {
				if err != nil || m.log == nil {
					return
				}
				if log == nil || m.log == log {
					want := 0
					if m.stats.Evictions > evicted {
						want = 1
						sweeps++
					}
					if calls.writes != want {
						t.Fatalf("a call that evicted %d segments made %d writes, want %d", m.stats.Evictions-evicted, calls.writes, want)
					}
				}
				switch {
				case op == "barrier" && m.stats.Faults > faults:
					barriers++
				case op == "faultall" && m.stats.Faults > faults:
					for pe, n := range live {
						if n > 0 && len(m.segs[pe]) == 0 {
							misses += outside[pe]
						}
					}
				}
				if op != "sweep" {
					reads += calls.reads
				}
				checkLog(t, m)
				checkOnlyLog(t, m)
				switches.observe(m)
				peak = max(peak, m.liveBytes)
				maxBatch = max(maxBatch, m.stats.BytesWritten-written)
				fi, err := os.Stat(m.log.Name())
				if err != nil {
					t.Fatal(err)
				}
				maxFile = max(maxFile, fi.Size())
				if fi.Size() > 2*peak+compactFloor+maxBatch {
					t.Fatalf("log is %d bytes with a live peak of %d and a largest batch of %d", fi.Size(), peak, maxBatch)
				}
			}}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := mgr.Stats()
	if st.Evictions < 1000 {
		t.Fatalf("only %d evictions; the run proves nothing about reclaiming space", st.Evictions)
	}
	if st.SegmentsLive != 0 {
		t.Errorf("%d frames still live after the run drained every stack", st.SegmentsLive)
	}
	if switches.n == 0 {
		t.Errorf("wrote %d bytes into a log that peaked at %d without compacting it once", st.BytesWritten, maxFile)
	}
	if reads > barriers+misses {
		t.Errorf("%d reads for %d restoring Barriers and %d frames restored from outside the window", reads, barriers, misses)
	}
	t.Logf("%d evictions in %d one-write sweeps and %d compacting ones, %d bytes written, live peak %d, largest batch %d, log peak %d",
		st.Evictions, sweeps, switches.n, st.BytesWritten, peak, maxBatch, maxFile)
	t.Logf("%d faults in %d reads: %d restoring Barriers, %d frames from outside the window", st.Faults, reads, barriers, misses)
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

// TestResetRewindsLog: after a Reset nothing is live, no read window is
// left, and the next eviction lands at offset 0 again, whatever the log
// held before.
func TestResetRewindsLog(t *testing.T) {
	a, mgr := handArena(t)
	if err := mgr.Sweep(a); err != nil {
		t.Fatal(err)
	}
	if mgr.Stats().SegmentsLive != a.P() || mgr.end == 0 {
		t.Fatalf("sweep left %d live frames, log end %d; want one per PE", mgr.Stats().SegmentsLive, mgr.end)
	}
	// A Barrier restoring PE 0 leaves a read window for Reset to drop.
	for a.Resident(0) > 0 {
		a.Pop(0)
	}
	if err := mgr.Barrier(a); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Reset(); err != nil {
		t.Fatal(err)
	}
	if mgr.Stats().SegmentsLive != 0 || mgr.end != 0 {
		t.Fatalf("after Reset: %d live frames, log end %d", mgr.Stats().SegmentsLive, mgr.end)
	}
	checkLog(t, mgr)
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
	checkLog(t, mgr)
}

// TestDiscardKillsFrames: the frames of a PE cleared since its eviction
// are dropped without a read, by FaultAll or by Barrier, and their bytes
// leave the live count.
func TestDiscardKillsFrames(t *testing.T) {
	a, mgr := handArena(t)
	if err := mgr.Sweep(a); err != nil {
		t.Fatal(err)
	}
	live, read := mgr.liveBytes, mgr.stats.BytesRead
	gone := int64(mgr.segs[1][0].size + mgr.segs[2][0].size)
	a.Clear(1)
	if err := mgr.FaultAll(a, 1); err != nil {
		t.Fatal(err)
	}
	a.Clear(2)
	if err := mgr.Barrier(a); err != nil {
		t.Fatal(err)
	}
	checkLog(t, mgr)
	if got := mgr.Stats().SegmentsLive; got != a.P()-2 || mgr.liveBytes != live-gone || mgr.stats.BytesRead != read {
		t.Fatalf("after two discards: %d frames in %d live bytes, %d bytes read; want %d in %d, %d read",
			got, mgr.liveBytes, mgr.stats.BytesRead-read, a.P()-2, live-gone, 0)
	}
}

// TestBarrierReadsOnce counts ReadAt calls through the logFile seam.  A
// sweep evicts one frame from each of four PEs; three of them then pop
// their resident levels, and the Barrier that restores those three frames
// reads the log once.  A FaultAll of the fourth PE, whose frame lies
// between theirs, then decodes it from the same bytes and reads nothing —
// unless a Sweep appended to the log in between, which drops the window:
// then that FaultAll reads its frame.
func TestBarrierReadsOnce(t *testing.T) {
	for _, appended := range []bool{false, true} {
		a, mgr := handArena(t)
		var calls logCalls
		countLog(mgr, &calls)
		if err := mgr.Sweep(a); err != nil {
			t.Fatal(err)
		}
		due := []int{0, 1, 3}
		for _, pe := range due {
			for a.Resident(pe) > 0 {
				a.Pop(pe)
			}
		}
		calls = logCalls{}
		if err := mgr.Barrier(a); err != nil {
			t.Fatal(err)
		}
		if calls.reads != 1 || mgr.stats.Faults != int64(len(due)) {
			t.Fatalf("Barrier restored %d frames in %d reads, want %d in 1", mgr.stats.Faults, calls.reads, len(due))
		}
		checkLog(t, mgr)
		want := 0
		if appended {
			evicted := mgr.stats.Evictions
			if err := mgr.Sweep(a); err != nil {
				t.Fatal(err)
			}
			if mgr.stats.Evictions == evicted {
				t.Fatal("the second Sweep evicted nothing, so appended nothing")
			}
			want = 1
		}
		calls = logCalls{}
		if err := mgr.FaultAll(a, 2); err != nil {
			t.Fatal(err)
		}
		if calls.reads != want || a.Ghost(2) != 0 {
			t.Errorf("appended=%v: FaultAll restored PE 2 (%d ghost nodes left) in %d reads, want %d", appended, a.Ghost(2), calls.reads, want)
		}
		checkLog(t, mgr)
	}
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
// fault, inside a real run, and checks the things the restore path owes
// its caller: RunContext returns the classified error, naming the bad
// frame's PE, sequence number and offset; that PE is exactly as it was
// before the failing call, node for node; the log's books still balance;
// and once the manager is closed the process holds the descriptors it
// held before the run.  Each row runs twice.  "first restore" damages the
// frame the first restoring Barrier reads first, the lowest in the log,
// and then every PE must be as it was.  "last of a window" damages the
// last of two or more frames a Barrier reads in one window, so the frames
// before it are decoded from the same bytes and restored first.  The EIO
// row fails every read that touches the frame, the window's included, and
// the frame's own read that follows.  The write leg closes the file under
// the manager instead: the failed sweep must evict nothing.
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
		{"zero-filled hole", ErrBadMagic, func(t *testing.T, m *Manager[node], pe int, ref segRef) {
			// Cut the file at the frame and extend it back to its size: the
			// frame and everything after it is a hole that reads as zeros.
			fi, err := os.Stat(m.log.Name())
			if err != nil {
				t.Fatal(err)
			}
			if err := errors.Join(os.Truncate(m.log.Name(), ref.off), os.Truncate(m.log.Name(), fi.Size())); err != nil {
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
		{"EIO reading the window", syscall.EIO, func(t *testing.T, m *Manager[node], pe int, ref segRef) {
			m.log.(*faultyLog).readFail = func(b []byte, off int64) error {
				if off < ref.end() && ref.off < off+int64(len(b)) {
					return &os.PathError{Op: "read", Path: m.log.Name(), Err: syscall.EIO}
				}
				return nil
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, batched := range []bool{false, true} {
				name := "first restore"
				if batched {
					name = "last of a window"
				}
				t.Run(name, func(t *testing.T) { faultRow(t, tc.want, tc.sabotage, batched) })
			}
		})
	}

	t.Run("failed write", func(t *testing.T) {
		fds := openFDs()
		var before []peState
		closed := false
		mgr, err := tightRun(t, func(m *Manager[node]) probe {
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
					before = statesOf(a)
				},
				after: func(_ string, a *arena, err error) {
					if err == nil {
						return
					}
					checkUntouched(t, "failed sweep", a, before)
					checkLog(t, m)
				},
			}
		})
		if !closed {
			t.Fatal("no Sweep evicted after the log was opened")
		}
		if !errors.Is(err, os.ErrClosed) {
			t.Fatalf("RunContext = %v, want os.ErrClosed", err)
		}
		checkFDs(t, fds, mgr)
	})
}

// faultRow is one TestFaultClassification row: a tight run whose log
// sabotage damages at a Barrier's frame — the first it restores, or with
// batched the last of two or more in one window — and RunContext must
// return want.
func faultRow(t *testing.T, want error, sabotage func(t *testing.T, m *Manager[node], pe int, ref segRef), batched bool) {
	fds := openFDs()
	victim, first := -1, -1
	var (
		ref    segRef
		before []peState
		levels [][]node
	)
	mgr, err := tightRun(t, func(m *Manager[node]) probe {
		m.open = func(name string) (logFile, error) {
			f, err := openLog(name)
			if err != nil {
				return nil, err
			}
			return &faultyLog{logFile: f}, nil
		}
		return probe{Manager: m,
			before: func(op string, a *arena) {
				if op != "barrier" || victim >= 0 {
					return
				}
				// The frames this Barrier will restore, in the order it will.
				var due []int
				for pe, refs := range m.segs {
					if len(refs) > 0 && a.Ghost(pe) > 0 && a.Resident(pe) == 0 {
						due = append(due, pe)
					}
				}
				slices.SortFunc(due, func(x, y int) int { return cmp.Compare(m.newest(x).off, m.newest(y).off) })
				switch {
				case !batched && len(due) > 0:
					victim = due[0]
				case batched && len(due) >= 2 && m.newest(due[len(due)-1]).end()-m.newest(due[0]).off <= compactChunk:
					victim = due[len(due)-1]
				default:
					return
				}
				first, ref, before, levels = due[0], m.newest(victim), statesOf(a), levelsOf(a, victim)
				sabotage(t, m, victim, ref)
			},
			after: func(_ string, a *arena, err error) {
				if err == nil {
					return
				}
				if name := fmt.Sprintf("segment %d of PE %d at log offset %d:", ref.seq, victim, ref.off); !strings.Contains(err.Error(), name) {
					t.Errorf("error %q does not name the bad frame (%s)", err, name)
				}
				if !batched {
					checkUntouched(t, "failed fault", a, before)
				} else if got := stateOf(a, victim); got != before[victim] {
					t.Errorf("failed fault moved PE %d from %+v to %+v", victim, before[victim], got)
				} else if a.Resident(first) == 0 {
					t.Errorf("PE %d, first in the window, was not restored before PE %d failed", first, victim)
				}
				if !sameLevels(levelsOf(a, victim), levels) {
					t.Errorf("failed fault kept PE %d's counters but not its nodes", victim)
				}
				checkLog(t, m)
			},
		}
	})
	if victim < 0 {
		t.Fatal("no Barrier restored the frames this row damages")
	}
	if !errors.Is(err, want) {
		t.Fatalf("RunContext = %v, want %v", err, want)
	}
	checkFDs(t, fds, mgr)
}

// statesOf is stateOf for every PE, and checkUntouched requires the arena
// to be in those states still.
func statesOf(a *arena) []peState {
	st := make([]peState, a.P())
	for pe := range st {
		st[pe] = stateOf(a, pe)
	}
	return st
}

func checkUntouched(t *testing.T, what string, a *arena, before []peState) {
	t.Helper()
	for pe, want := range before {
		if got := stateOf(a, pe); got != want {
			t.Errorf("%s moved PE %d from %+v to %+v", what, pe, want, got)
		}
	}
}

// checkFDs closes the manager and requires the process to hold the fds
// descriptors it held before the run.
func checkFDs(t *testing.T, fds int, m *Manager[node]) {
	t.Helper()
	m.Close() // its error is the test's own doing when it closed the log under the manager
	if got := openFDs(); got != fds {
		t.Errorf("%d descriptors open before the run, %d after Close", fds, got)
	}
}
