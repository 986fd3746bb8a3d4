package spill

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
)

// faultyLog is a segment log whose reads and writes a test can fail: when
// arm is set and says yes to a WriteAt, fail stands in for it, and when
// readFail is set and returns an error for a ReadAt, the read returns it.
type faultyLog struct {
	logFile
	arm      func(f *faultyLog) bool
	fail     func(f *faultyLog, b []byte, off int64) (int, error)
	readFail func(b []byte, off int64) error
}

func (f *faultyLog) WriteAt(b []byte, off int64) (int, error) {
	if f.arm != nil && f.arm(f) {
		return f.fail(f, b, off)
	}
	return f.logFile.WriteAt(b, off)
}

func (f *faultyLog) ReadAt(b []byte, off int64) (int, error) {
	if f.readFail != nil {
		if err := f.readFail(b, off); err != nil {
			return 0, err
		}
	}
	return f.logFile.ReadAt(b, off)
}

// TestLogWriteFaults fails one write of a live run's sweep the ways
// closing the file (TestFaultClassification) cannot: ENOSPC on the
// sweep's one append, a torn append — half the batch lands, then an
// error — and ENOSPC on a compaction's write into the fresh file.  Each
// hits a sweep with at least two victims.  RunContext must return the
// error; the failed sweep must have evicted nothing — every PE exactly as
// before the call, node for node, no sequence number spent, the log's end
// and live bytes where they were, and no segment file but the log in the
// directory; and once the file is healed a Sweep succeeds, appending at
// that end (over whatever a torn write left there) unless it compacts
// first, and every stack restores to what it held.
func TestLogWriteFaults(t *testing.T) {
	enospc := func(f *faultyLog, b []byte, off int64) (int, error) {
		return 0, &os.PathError{Op: "write", Path: f.Name(), Err: syscall.ENOSPC}
	}
	cases := []struct {
		name    string
		want    error
		compact bool // the write that fails is a compaction's, not the append
		fail    func(f *faultyLog, b []byte, off int64) (int, error)
	}{
		{"ENOSPC moving the end", syscall.ENOSPC, false, enospc},
		{"torn write", io.ErrShortWrite, false, func(f *faultyLog, b []byte, off int64) (int, error) {
			n, err := f.logFile.WriteAt(b[:len(b)/2], off)
			if err != nil {
				return n, err
			}
			return n, io.ErrShortWrite
		}},
		{"ENOSPC compacting", syscall.ENOSPC, true, enospc},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				fired, healed bool
				before        []peState
				windows       [][][]node // resident levels before the sweep
				evicted       int64
				seq           uint64
				end, live     int64
			)
			_, err := tightRun(t, func(m *Manager[node]) probe {
				// The sweep's append is the one write into the current log;
				// a compaction writes into the fresh file.
				arm := func(f *faultyLog) bool {
					if fired || healed || (logFile(f) != m.log) != tc.compact || len(m.batch) < 2 {
						return false
					}
					fired = true
					return true
				}
				m.open = func(name string) (logFile, error) {
					f, err := openLog(name)
					if err != nil {
						return nil, err
					}
					return &faultyLog{logFile: f, arm: arm, fail: tc.fail}, nil
				}
				return probe{Manager: m,
					before: func(op string, a *arena) {
						if op != "sweep" || fired {
							return
						}
						evicted, seq, end, live = m.stats.Evictions, m.seq, m.end, m.liveBytes
						before, windows = statesOf(a), windows[:0]
						for pe := 0; pe < a.P(); pe++ {
							windows = append(windows, levelsOf(a, pe))
						}
					},
					after: func(op string, a *arena, err error) {
						if op != "sweep" || err == nil {
							return
						}
						checkLog(t, m)
						if got := m.stats.Evictions - evicted; got != 0 || m.seq != seq {
							t.Errorf("failed sweep counted %d evictions and spent %d sequence numbers, want 0", got, m.seq-seq)
						}
						if m.end != end || m.liveBytes != live {
							t.Errorf("failed sweep moved the log from %d bytes (%d live) to %d (%d live)", end, live, m.end, m.liveBytes)
						}
						checkUntouched(t, "failed sweep", a, before)
						for pe := range windows {
							if !sameLevels(levelsOf(a, pe), windows[pe]) {
								t.Errorf("PE %d kept its counters but not its nodes", pe)
							}
						}
						checkOnlyLog(t, m)

						// Heal the file: the sweep goes through, and every
						// window comes back as it was.
						healed = true
						old := m.log
						if err := m.Sweep(a); err != nil {
							t.Fatalf("Sweep on the healed log: %v", err)
						}
						if n := m.stats.Evictions - evicted; n < 2 {
							t.Errorf("healed sweep evicted %d segments, want at least 2", n)
						}
						if m.log == old && m.end-end != m.liveBytes-live {
							t.Errorf("healed sweep moved the end by %d for %d live bytes: it did not append at the end the failed one kept",
								m.end-end, m.liveBytes-live)
						}
						checkLog(t, m)
						for pe := 0; pe < a.P(); pe++ {
							if err := m.FaultAll(a, pe); err != nil {
								t.Fatalf("FaultAll(%d) on the healed log: %v", pe, err)
							}
							all := levelsOf(a, pe)
							if top := all[len(all)-len(windows[pe]):]; !sameLevels(top, windows[pe]) {
								t.Errorf("PE %d restored %v over what was %v", pe, top, windows[pe])
							}
						}
						if n := m.Stats().SegmentsLive; n != 0 {
							t.Errorf("%d frames live after restoring every PE", n)
						}
					},
				}
			})
			if !fired {
				t.Fatal("no sweep with two or more victims made the write that fails")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("RunContext = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestLogOpenFaults fails the two opens a run makes: the log's, at the
// first eviction, and the fresh file's, at the first compaction.  Either
// way RunContext returns the classified error, the failing sweep evicts
// nothing, no file but the live log is left in the directory, and once
// the manager is closed the process holds the descriptors it held before
// the run.  After the failed compaction every PE still restores from the
// old log.
func TestLogOpenFaults(t *testing.T) {
	cases := []struct {
		name string
		want error
		// fails reports whether the open of name (a base name) fails.
		fails func(name string) bool
	}{
		{"first eviction", syscall.EMFILE, func(string) bool { return true }},
		{"compaction", syscall.ENOSPC, func(name string) bool { return name != logName }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fds := openFDs()
			var (
				failed bool
				before []peState
				old    logFile
			)
			mgr, err := tightRun(t, func(m *Manager[node]) probe {
				m.open = func(name string) (logFile, error) {
					if tc.fails(filepath.Base(name)) {
						failed = true
						return nil, &os.PathError{Op: "open", Path: name, Err: tc.want}
					}
					return openLog(name)
				}
				return probe{Manager: m,
					before: func(op string, a *arena) {
						if op == "sweep" {
							before, old = statesOf(a), m.log
						}
					},
					after: func(op string, a *arena, err error) {
						if op != "sweep" || err == nil {
							return
						}
						checkUntouched(t, "failed sweep", a, before)
						if m.log != old {
							t.Errorf("failed sweep switched the log")
						}
						checkOnlyLog(t, m)
						if m.log == nil {
							return
						}
						checkLog(t, m)
						for pe := 0; pe < a.P(); pe++ {
							if err := m.FaultAll(a, pe); err != nil {
								t.Fatalf("FaultAll(%d) from the old log: %v", pe, err)
							}
						}
						if live := m.Stats().SegmentsLive; live != 0 {
							t.Errorf("%d frames live after restoring every PE", live)
						}
					},
				}
			})
			if !failed {
				t.Fatal("the run never reached the open that fails")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("RunContext = %v, want %v", err, tc.want)
			}
			checkFDs(t, fds, mgr)
		})
	}
}

// checkOnlyLog requires the manager's log, if it has one, to be the only
// segment file in its directory.
func checkOnlyLog(t *testing.T, m *Manager[node]) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(m.Dir(), "*.sspl"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if m.log != nil {
		want = []string{m.log.Name()}
	}
	if !slices.Equal(names, want) {
		t.Errorf("segment files %v, want %v", names, want)
	}
}
