package spill

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"simdtree/internal/stack"
	"simdtree/internal/wire"
)

// naiveSweep is Sweep as it was before it selected from its own scan: all
// P PEs rescanned per eviction, strict >, so the lowest index wins a tie,
// and each victim evicted — written and dropped — before the next rescan.
// It is the oracle for victim order.
func naiveSweep(m *Manager[node], a *arena) error {
	if m.budgetNodes <= 0 {
		return nil
	}
	p := a.P()
	m.ensure(p)
	total := 0
	for pe := 0; pe < p; pe++ {
		total += a.Resident(pe)
	}
	m.stats.PeakResident = max(m.stats.PeakResident, total)
	for total > m.budgetNodes {
		pick, best := -1, 0
		for pe := 0; pe < p; pe++ {
			if a.ResidentDepth(pe) > m.keep && a.Resident(pe) > best {
				pick, best = pe, a.Resident(pe)
			}
		}
		if pick < 0 {
			return nil
		}
		m.batch = append(m.batch[:0], victim{pe: pick, levels: a.ResidentDepth(pick) - m.keep})
		if err := m.evict(a); err != nil {
			return err
		}
		total -= best - a.Resident(pick)
	}
	return nil
}

// levelsOf copies PE pe's resident levels, bottom first.
func levelsOf(a *arena, pe int) [][]node {
	var out [][]node
	a.ForEachLevel(pe, func(lv []node) { out = append(out, slices.Clone(lv)) })
	return out
}

// sameLevels reports that two stacks hold the same nodes in the same levels.
func sameLevels(x, y [][]node) bool {
	return slices.EqualFunc(x, y, func(a, b []node) bool { return slices.Equal(a, b) })
}

// diffArenas names the first PE on which two arenas differ — in a counter
// or in a resident node — or returns "".
func diffArenas(a, b *arena) string {
	for pe := 0; pe < a.P(); pe++ {
		if sa, sb := stateOf(a, pe), stateOf(b, pe); sa != sb || a.GhostLevels(pe) != b.GhostLevels(pe) {
			return fmt.Sprintf("PE %d is %+v (%d ghost levels) in one arena, %+v (%d) in the other",
				pe, sa, a.GhostLevels(pe), sb, b.GhostLevels(pe))
		}
		if la, lb := levelsOf(a, pe), levelsOf(b, pe); !sameLevels(la, lb) {
			return fmt.Sprintf("PE %d holds %v in one arena, %v in the other", pe, la, lb)
		}
	}
	return ""
}

// diffManagers names the first difference between two managers' books:
// the counters, the log's end and live bytes, every live ref.
func diffManagers(x, y *Manager[node]) string {
	if x.Stats() != y.Stats() {
		return fmt.Sprintf("stats %+v vs %+v", x.Stats(), y.Stats())
	}
	if x.end != y.end || x.liveBytes != y.liveBytes {
		return fmt.Sprintf("log ends at %d with %d live bytes vs %d with %d", x.end, x.liveBytes, y.end, y.liveBytes)
	}
	for pe := range x.segs {
		if !slices.Equal(x.segs[pe], y.segs[pe]) {
			return fmt.Sprintf("segments of PE %d: %+v vs %+v", pe, x.segs[pe], y.segs[pe])
		}
	}
	return ""
}

// twin is two arenas and two managers kept in step: the same script runs
// on both, Sweep on one and the oracle on the other.
type twin struct {
	t    *testing.T
	a    [2]*arena
	m    [2]*Manager[node]
	next uint64 // node counter: every pushed node is distinct
}

func newTwin(t *testing.T, p, keep int, budget int64) *twin {
	tw := &twin{t: t}
	for i := range tw.a {
		tw.a[i] = stack.NewArena[node](p)
		m, err := NewManager[node](wire.SyntheticCodec{}, Config{Dir: t.TempDir(), MemBudget: budget, NodeBytes: 1, KeepLevels: keep})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		tw.m[i] = m
	}
	return tw
}

func (tw *twin) push(pe, width int) {
	lv := make([]node, width)
	for i := range lv {
		tw.next++
		lv[i] = node{Budget: int64(tw.next), Seed: tw.next}
	}
	for _, a := range tw.a {
		a.PushLevel(pe, lv)
	}
}

// each runs f on both sides and fails the test on an error.
func (tw *twin) each(what string, f func(m *Manager[node], a *arena) error) {
	tw.t.Helper()
	for i := range tw.a {
		if err := f(tw.m[i], tw.a[i]); err != nil {
			tw.t.Fatalf("%s: %v", what, err)
		}
	}
}

// sweep runs Sweep on side 0 and the oracle on side 1 and requires
// identical books and identical arenas.
func (tw *twin) sweep(what string) {
	tw.t.Helper()
	if err := tw.m[0].Sweep(tw.a[0]); err != nil {
		tw.t.Fatalf("%s: Sweep: %v", what, err)
	}
	if err := naiveSweep(tw.m[1], tw.a[1]); err != nil {
		tw.t.Fatalf("%s: naiveSweep: %v", what, err)
	}
	if d := diffManagers(tw.m[0], tw.m[1]); d != "" {
		tw.t.Fatalf("%s: Sweep vs oracle: %s", what, d)
	}
	if d := diffArenas(tw.a[0], tw.a[1]); d != "" {
		tw.t.Fatalf("%s: Sweep vs oracle: %s", what, d)
	}
	checkLog(tw.t, tw.m[0])
}

// TestSweepVictimOrder runs Sweep and the per-eviction rescan it replaced
// over twin arenas through a script of sweeps with pushes, pops, barriers
// and full faults between them, and requires the same victims in the same
// order: every ref (seq, nodes, levels, offset, size), the log's end and
// live bytes, every counter and every resident node equal after every
// sweep — one write of the whole batch lays the frames out exactly as one
// write per victim does.  The arenas are seeded for ties (levels of one or
// two nodes, a handful of depths), with PEs below, at and above the keep
// floor, and from the second sweep on carry ghosts of the earlier ones.
func TestSweepVictimOrder(t *testing.T) {
	for _, p := range []int{1, 63, 64, 65, 256} {
		for keep := 1; keep <= 3; keep++ {
			for _, budget := range []string{"none", "one node", "just under", "far over"} {
				t.Run(fmt.Sprintf("P=%d/keep=%d/%s", p, keep, budget), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(p*10 + keep)))
					widths := make([][]int, p) // per PE, the width of each level
					total := 0
					for pe := range widths {
						for l := rng.Intn(keep + 4); l > 0; l-- {
							w := 1 + rng.Intn(2)
							widths[pe] = append(widths[pe], w)
							total += w
						}
					}
					bytes := map[string]int64{"none": 0, "one node": 1, "just under": int64(total - 1), "far over": int64(100 * total)}[budget]
					tw := newTwin(t, p, keep, bytes)
					for pe, ws := range widths {
						for _, w := range ws {
							tw.push(pe, w)
						}
					}
					for step := 0; step < 8; step++ {
						tw.sweep(fmt.Sprintf("sweep %d", step))
						if step%2 == 1 {
							tw.each("Barrier", func(m *Manager[node], a *arena) error { return m.Barrier(a) })
						}
						for i := 0; i <= p/2; i++ {
							pe := rng.Intn(p)
							switch rng.Intn(4) {
							case 0, 1:
								for l := 1 + rng.Intn(3); l > 0; l-- {
									tw.push(pe, 1+rng.Intn(2))
								}
							case 2:
								for n := 1 + rng.Intn(3); n > 0 && tw.a[0].Resident(pe) > 0; n-- {
									for _, a := range tw.a {
										a.Pop(pe)
									}
								}
							case 3:
								tw.each("FaultAll", func(m *Manager[node], a *arena) error { return m.FaultAll(a, pe) })
							}
						}
					}
					for pe := 0; pe < p; pe++ {
						tw.each("final FaultAll", func(m *Manager[node], a *arena) error { return m.FaultAll(a, pe) })
					}
					if d := diffArenas(tw.a[0], tw.a[1]); d != "" {
						t.Fatalf("after restoring everything: %s", d)
					}
					if live := tw.m[0].Stats().SegmentsLive; live != 0 {
						t.Fatalf("%d frames live after restoring everything", live)
					}
				})
			}
		}
	}
}

// TestSweepAtTheFloor: with every PE at its keep floor there is nothing to
// evict; Sweep returns nil over budget, having evicted nothing, and returns
// at all — the over-budget loop ends with the candidates, not the excess.
func TestSweepAtTheFloor(t *testing.T) {
	tw := newTwin(t, 65, DefaultKeepLevels, 1)
	for pe := 0; pe < 65; pe++ {
		for l := 0; l < pe%(DefaultKeepLevels+1); l++ { // 0, 1 or 2 levels
			tw.push(pe, 3)
		}
	}
	total := 0
	for pe := 0; pe < 65; pe++ {
		total += tw.a[0].Resident(pe)
	}
	for i := 0; i < 3; i++ {
		tw.sweep("at the floor")
	}
	st := tw.m[0].Stats()
	if st.Evictions != 0 || st.PeakResident != total || total <= tw.m[0].BudgetNodes() {
		t.Fatalf("stats %+v over %d resident nodes and a budget of %d: want no eviction, the peak recorded", st, total, tw.m[0].BudgetNodes())
	}
	if tw.m[0].log != nil {
		t.Error("a sweep that evicted nothing opened the log")
	}
}

// BenchmarkSweepThrash prices an eviction in a steady thrash (see thrash):
// the hot PEs fault their levels back with FaultAll, one read per fault.
// ns/evict is the whole iteration over its 16 evictions: besides the read
// and a sixteenth of the write it holds one sixteenth of the P-long pass
// every sweep makes, and held one whole pass per eviction before victims
// were selected from it.  It fails if a sweep writes more than once (frame
// by frame again) or if the warmed-up loop allocates.
func BenchmarkSweepThrash(b *testing.B) {
	thrash(b, "ns/evict", "reads/sweep", thrashHot, func(a *arena, mgr *Manager[node], hot []int) {
		for _, pe := range hot {
			if err := mgr.FaultAll(a, pe); err != nil {
				b.Fatal(err)
			}
			for n := 0; n < thrashOver*len(thrashLevel); n++ {
				a.Pop(pe)
			}
		}
	})
}

// BenchmarkFaultBarrier prices a fault through Barrier in the same thrash:
// the hot PEs pop their resident levels, one Barrier restores all 16
// frames, and they pop down to the floor.  The 16 frames lie in one window,
// so it fails above one ReadAt a Barrier, as well as on an allocation.
// ns/fault is the whole iteration over its 16 faults, sweep included.
func BenchmarkFaultBarrier(b *testing.B) {
	thrash(b, "ns/fault", "reads/barrier", 1, func(a *arena, mgr *Manager[node], hot []int) {
		for _, pe := range hot {
			for n := 0; n < DefaultKeepLevels*len(thrashLevel); n++ {
				a.Pop(pe)
			}
		}
		if err := mgr.Barrier(a); err != nil {
			b.Fatal(err)
		}
		for _, pe := range hot {
			if a.Resident(pe) != thrashOver*len(thrashLevel) {
				b.Fatalf("Barrier restored %d nodes of PE %d, want %d", a.Resident(pe), pe, thrashOver*len(thrashLevel))
			}
			for n := 0; n < (thrashOver-DefaultKeepLevels)*len(thrashLevel); n++ {
				a.Pop(pe)
			}
		}
	})
}

// The thrash: 16 hot PEs an iteration, each pushed three levels of
// thrashLevel past its keep floor.
const thrashHot, thrashOver = 16, 3

var thrashLevel = []node{{Budget: 3, Seed: 1}, {Budget: 2, Seed: 2}}

// thrash runs a steady evict/restore thrash at P = 256, 4096 and 65536:
// every PE sits at its keep floor, two levels of thrashLevel, on a budget
// that is exactly full; each iteration pushes the next 16 PEs three levels
// past the floor, Sweep evicts those 16 with one write, and restore brings
// their levels back and pops them down to the floor again, on tmpfs where
// there is one.  It reports the iteration's time per hot PE as unit, the
// WriteAt calls per iteration as writes/sweep and the ReadAt calls as
// readUnit, counted through the logFile seam, and fails when a sweep
// writes more than once, an iteration reads more than maxReads times, or
// the warmed-up loop allocates.
func thrash(b *testing.B, unit, readUnit string, maxReads float64, restore func(a *arena, mgr *Manager[node], hot []int)) {
	for _, p := range []int{256, 4096, 65536} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			dir, err := os.MkdirTemp("/dev/shm", "sweepthrash-*")
			if err != nil {
				dir = b.TempDir()
			}
			b.Cleanup(func() { os.RemoveAll(dir) })
			a := stack.NewArena[node](p)
			for pe := 0; pe < p; pe++ {
				for l := 0; l < DefaultKeepLevels; l++ {
					a.PushLevel(pe, thrashLevel)
				}
			}
			floor := p * DefaultKeepLevels * len(thrashLevel)
			mgr, err := NewManager[node](wire.SyntheticCodec{}, Config{Dir: dir, MemBudget: int64(floor), NodeBytes: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { mgr.Close() })
			var calls logCalls
			countLog(mgr, &calls)
			hot := make([]int, thrashHot)
			first, stride := 0, p/thrashHot
			iter := func() {
				for i := range hot {
					hot[i] = first + i*stride
					for l := 0; l < thrashOver; l++ {
						a.PushLevel(hot[i], thrashLevel)
					}
				}
				before := mgr.stats.Evictions
				if err := mgr.Sweep(a); err != nil {
					b.Fatal(err)
				}
				if n := mgr.stats.Evictions - before; n != thrashHot {
					b.Fatalf("sweep evicted %d segments, want %d", n, thrashHot)
				}
				restore(a, mgr, hot)
				first = (first + 1) % stride
			}
			for i := 0; i < stride; i++ { // every PE has been a victim once: all scratch grown
				iter()
			}
			b.ResetTimer()
			calls = logCalls{}
			for i := 0; i < b.N; i++ {
				iter()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/thrashHot, unit)
			writes, reads := float64(calls.writes)/float64(b.N), float64(calls.reads)/float64(b.N)
			b.ReportMetric(writes, "writes/sweep")
			b.ReportMetric(reads, readUnit)
			if writes > 1 {
				b.Fatalf("%v writes per sweep, want at most 1", writes)
			}
			if reads > maxReads {
				b.Fatalf("%v %s, want at most %v", reads, readUnit, maxReads)
			}
			if allocs := testing.AllocsPerRun(20, iter); allocs != 0 {
				b.Fatalf("%v allocs per iteration in steady state, want 0", allocs)
			}
		})
	}
}

// logCalls counts the reads and writes that reach a segment log.
type logCalls struct{ reads, writes int }

// countingLog is a segment log that counts its calls into n.
type countingLog struct {
	logFile
	n *logCalls
}

func (c countingLog) WriteAt(b []byte, off int64) (int, error) {
	c.n.writes++
	return c.logFile.WriteAt(b, off)
}

func (c countingLog) ReadAt(b []byte, off int64) (int, error) {
	c.n.reads++
	return c.logFile.ReadAt(b, off)
}

// countLog makes m open its log files as countingLogs counting into n.
func countLog(m *Manager[node], n *logCalls) {
	m.open = func(name string) (logFile, error) {
		f, err := openLog(name)
		if err != nil {
			return nil, err
		}
		return countingLog{f, n}, nil
	}
}
