package spill

import (
	"errors"
	"io"
	"os"
	"syscall"
	"testing"

	"simdtree/internal/wire"
)

// faultyLog is a segment log whose writes a test can fail: when arm is
// set and says yes to a WriteAt, fail stands in for it.  hwm is the end of
// the furthest write that went through, so off >= hwm is a write into a
// slot carved from the log's end — the write that grows the file — and
// off < hwm one into a slot some earlier frame vacated.
type faultyLog struct {
	logFile
	hwm  int64
	arm  func(b []byte, off int64) bool
	fail func(f *faultyLog, b []byte, off int64) (int, error)
}

func (f *faultyLog) WriteAt(b []byte, off int64) (int, error) {
	if f.arm != nil && f.arm(b, off) {
		return f.fail(f, b, off)
	}
	n, err := f.logFile.WriteAt(b, off)
	if err == nil {
		f.hwm = max(f.hwm, off+int64(n))
	}
	return n, err
}

// TestLogWriteFaults fails one write of a live run's segment log the two
// ways closing the file (TestFaultClassification) cannot: ENOSPC on a
// write that would move the log's end, and a torn write — half the frame
// lands, then an error — into a reused slot.  Each hits the third victim
// of a sweep that has further candidates behind it.  RunContext must
// return the error; the sweep's first two victims stay evicted; the third
// victim and every PE behind it are exactly as before the call, node for
// node; the slot is back on its free list; and once the file is healed a
// Sweep succeeds and every stack restores to what it held.
func TestLogWriteFaults(t *testing.T) {
	const k = 3
	cases := []struct {
		name   string
		want   error
		reused bool // the slot the fault waits for
		fail   func(f *faultyLog, b []byte, off int64) (int, error)
	}{
		{"ENOSPC moving the end", syscall.ENOSPC, false, func(f *faultyLog, b []byte, off int64) (int, error) {
			return 0, &os.PathError{Op: "write", Path: f.Name(), Err: syscall.ENOSPC}
		}},
		{"torn write into a reused slot", io.ErrShortWrite, true, func(f *faultyLog, b []byte, off int64) (int, error) {
			n, err := f.logFile.WriteAt(b[:len(b)/2], off)
			if err != nil {
				return n, err
			}
			return n, io.ErrShortWrite
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				fl      faultyLog
				writes  int // of the sweep in progress
				fired   bool
				victim  = -1
				before  []peState
				windows [][][]node // resident levels before the sweep
				evicted int64
			)
			_, err := tightRun(t, func(m *Manager[node]) probe {
				m.open = func(name string) (logFile, error) {
					f, err := openLog(name)
					fl.logFile = f
					return &fl, err
				}
				var cur *arena
				fl.fail = tc.fail
				fl.arm = func(b []byte, off int64) bool {
					writes++
					evictable := 0
					for pe := 0; pe < cur.P(); pe++ {
						if cur.ResidentDepth(pe) > m.keep {
							evictable++
						}
					}
					// The victim being written is still evictable; one more
					// makes a candidate the sweep has not reached.
					if fired || writes != k || (off < fl.hwm) != tc.reused || evictable < 2 {
						return false
					}
					fired = true
					victim, _, _, _, _ = DecodeSegment[node](wire.SyntheticCodec{}, b, nil, nil)
					return true
				}
				return probe{Manager: m,
					before: func(op string, a *arena) {
						if op != "sweep" || fired {
							return
						}
						cur, writes, evicted = a, 0, m.stats.Evictions
						before, windows = before[:0], windows[:0]
						for pe := 0; pe < a.P(); pe++ {
							before = append(before, stateOf(a, pe))
							windows = append(windows, levelsOf(a, pe))
						}
					},
					after: func(op string, a *arena, err error) {
						if op != "sweep" || err == nil {
							return
						}
						checkSlots(t, m)
						if got := m.stats.Evictions - evicted; got != k-1 {
							t.Errorf("failed sweep counted %d evictions, want %d", got, k-1)
						}
						moved := 0
						for pe := 0; pe < a.P(); pe++ {
							got := stateOf(a, pe)
							if got == before[pe] {
								if !sameLevels(levelsOf(a, pe), windows[pe]) {
									t.Errorf("PE %d kept its counters but not its nodes", pe)
								}
								continue
							}
							moved++
							if pe == victim {
								t.Errorf("failed eviction moved its victim, PE %d, from %+v to %+v", pe, before[pe], got)
							}
							if r, v := before[pe].resident, before[victim].resident; r < v || r == v && pe > victim {
								t.Errorf("PE %d (%d resident) was evicted ahead of PE %d (%d resident)", pe, r, victim, v)
							}
							if got.ghost <= before[pe].ghost || got.resident+got.ghost != before[pe].resident+before[pe].ghost {
								t.Errorf("PE %d went from %+v to %+v: not an eviction", pe, before[pe], got)
							}
						}
						if moved != k-1 {
							t.Errorf("failed sweep moved %d PEs, want its first %d victims", moved, k-1)
						}

						// Heal the file: the sweep goes through, reusing the
						// slot the failed write gave back, and every window
						// comes back as it was.
						fl.arm = nil
						if err := m.Sweep(a); err != nil {
							t.Fatalf("Sweep on the healed log: %v", err)
						}
						if m.stats.Evictions-evicted < k {
							t.Errorf("healed sweep evicted nothing more (%d in all)", m.stats.Evictions-evicted)
						}
						checkSlots(t, m)
						for pe := 0; pe < a.P(); pe++ {
							if err := m.FaultAll(a, pe); err != nil {
								t.Fatalf("FaultAll(%d) on the healed log: %v", pe, err)
							}
							all := levelsOf(a, pe)
							if top := all[len(all)-len(windows[pe]):]; !sameLevels(top, windows[pe]) {
								t.Errorf("PE %d restored %v over what was %v", pe, top, windows[pe])
							}
						}
						if live := m.Stats().SegmentsLive; live != 0 {
							t.Errorf("%d frames live after restoring every PE", live)
						}
					},
				}
			})
			if !fired {
				t.Fatalf("no sweep wrote a victim %d into the wanted slot with a candidate behind it", k)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("RunContext = %v, want %v", err, tc.want)
			}
		})
	}
}
