package spill

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"simdtree/internal/scan"
	"simdtree/internal/stack"
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

// residencyPEs is the machine size of a residency script: small, so a few
// bytes of input collide on a PE and resident counts tie.
const residencyPEs = 5

// runResidency interprets data as a residency script on a budgeted arena
// beside an unbounded shadow that receives the same pushes, pops and
// bottom-node donations.  Bytes 0 and 1 choose KeepLevels (1-3) and the budget (1-24
// nodes); every following pair is one step, an opcode and its argument (a
// PE, a level width).  After every step the two arenas must agree on what
// the schedule can see — Size and Depth of every PE, both bitsets — the
// budgeted arena's resident nodes must be the shadow's and nobody else's
// (checkOwned), and the log's books must balance; at the end everything is
// faulted back and the stacks must be equal level by level with no frame
// left live.  It returns the manager's counters and the number of times
// the log was compacted into a fresh file.
func runResidency(t *testing.T, data []byte) (Stats, int) {
	if len(data) < 2 {
		return Stats{}, 0
	}
	data = data[:min(len(data), 2048)]
	mgr, err := NewManager[node](wire.SyntheticCodec{}, Config{
		Dir: t.TempDir(), NodeBytes: 1, KeepLevels: 1 + int(data[0])%3, MemBudget: 1 + int64(data[1])%24,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	a, shadow := stack.NewArena[node](residencyPEs), stack.NewArena[node](residencyPEs)
	must := func(what string, err error) {
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	same := func(what string, x, y node, okx, oky bool) {
		if x != y || okx != oky {
			t.Fatalf("%s: budgeted arena gave %v, %v; the shadow %v, %v", what, x, okx, y, oky)
		}
	}
	var next uint64
	var switches logSwitches
	for i := 2; i+1 < len(data); i += 2 {
		op, arg := data[i]%16, data[i+1]
		pe := int(arg) % residencyPEs
		switch {
		case op < 6:
			lv := make([]node, 1+int(arg>>4)%3)
			for j := range lv {
				next++
				lv[j] = node{Budget: int64(next), Seed: ^next}
			}
			a.PushLevel(pe, lv)
			shadow.PushLevel(pe, lv)
		case op < 9:
			// The engine pops only behind a Barrier.
			if a.Resident(pe) == 0 && a.Ghost(pe) > 0 {
				must("Barrier", mgr.Barrier(a))
			}
			x, okx := a.Pop(pe)
			y, oky := shadow.Pop(pe)
			same("Pop", x, y, okx, oky)
		case op < 11, op == 15 && arg >= 64:
			must("Sweep", mgr.Sweep(a))
		case op == 11:
			must("Barrier", mgr.Barrier(a))
		case op < 15:
			must("FaultAll", mgr.FaultAll(a, pe))
			if op == 14 {
				// A bottom-node donation to the next PE, on both arenas.
				pair := []scan.Pair{{From: pe, To: (pe + 1) % residencyPEs}}
				for _, x := range []*stack.Arena[node]{a, shadow} {
					stack.BottomNode[node]{}.SplitBlock(x, pair, make([]int, 1), nil)
					x.SyncBits(pair[0].From)
					x.SyncBits(pair[0].To)
				}
			}
		default:
			// A snapshot restore: the manager forgets, the machine's state
			// is replaced wholesale.
			must("Reset", mgr.Reset())
			for pe := 0; pe < residencyPEs; pe++ {
				a.CopyPE(pe, shadow, pe)
			}
		}
		for pe := 0; pe < residencyPEs; pe++ {
			if a.Size(pe) != shadow.Size(pe) || a.Depth(pe) != shadow.Depth(pe) {
				t.Fatalf("step %d (op %d): PE %d is %d nodes in %d levels, the shadow %d in %d",
					i/2, op, pe, a.Size(pe), a.Depth(pe), shadow.Size(pe), shadow.Depth(pe))
			}
		}
		if !slices.Equal(a.WorkBits(), shadow.WorkBits()) || !slices.Equal(a.SplitBits(), shadow.SplitBits()) {
			t.Fatalf("step %d (op %d): flag words differ from the shadow's", i/2, op)
		}
		checkLog(t, mgr)
		switches.observe(mgr)
		checkOwned(t, i/2, a, shadow)
	}
	for pe := 0; pe < residencyPEs; pe++ {
		must("final FaultAll", mgr.FaultAll(a, pe))
	}
	if d := diffArenas(a, shadow); d != "" {
		t.Fatalf("after the final restore: %s", d)
	}
	if live := mgr.Stats().SegmentsLive; live != 0 {
		t.Fatalf("%d frames live after the final restore", live)
	}
	return mgr.Stats(), switches.n
}

// checkOwned is the ownership invariant of the arena's home windows, as far
// as it shows from outside the package: the five PEs share one chunk, so the
// resident nodes of different PEs must sit in disjoint memory, and a PE's
// must be the top Resident(pe) nodes of the shadow's stack — through every
// eviction, restore, window slide and move to the heap.
func checkOwned(t *testing.T, step int, a, shadow *stack.Arena[node]) {
	var spans [residencyPEs][2]uintptr
	for pe := 0; pe < residencyPEs; pe++ {
		var want []node
		shadow.ForEachLevel(pe, func(lv []node) { want = append(want, lv...) })
		want = want[len(want)-a.Resident(pe):]
		sp := &spans[pe]
		a.ForEachLevel(pe, func(lv []node) {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(lv)))
			if sp[0] == 0 {
				sp[0] = lo
			}
			sp[1] = lo + uintptr(len(lv))*unsafe.Sizeof(node{})
			if !slices.Equal(lv, want[:len(lv)]) {
				t.Fatalf("step %d: PE %d holds level %v where the shadow has %v", step, pe, lv, want[:len(lv)])
			}
			want = want[len(lv):]
		})
		for q, s := range spans[:pe] {
			if s[0] < sp[1] && sp[0] < s[1] {
				t.Fatalf("step %d: the resident nodes of PEs %d and %d share memory", step, q, pe)
			}
		}
	}
}

// residencySeeds is the committed corpus of FuzzResidencySequence: three
// hand-written openings, three seeded scripts long enough to thrash, one
// that churns enough log bytes past a live frame to compact the log, and
// one whose compaction is a rewind under a Barrier's read window.
func residencySeeds() [][]byte {
	seeds := [][]byte{
		{1, 0},
		{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 6, 0, 11, 0, 6, 0, 6, 0}, // four levels, sweep, pop through a fault
		{0, 0, 0, 1, 0, 1, 0, 1, 9, 0, 15, 0, 0, 1, 9, 0, 14, 1},      // evict, reset, evict again, remove the bottom
	}
	for s := int64(1); s <= 3; s++ {
		rng := rand.New(rand.NewSource(s))
		b := make([]byte, 1600)
		rng.Read(b)
		seeds = append(seeds, b)
	}
	return append(seeds, compactionSeed(), rewindSeed())
}

// compactionSeed is a script at KeepLevels 1 and a one-node budget: PE 0
// gets three levels of three nodes and a sweep, which leaves one frame
// live for good; PE 1 gets twenty such levels; then, until the script's
// length cap, a sweep evicts PE 1's bottom nineteen levels as one frame
// and a full fault restores them, each round leaving that frame's bytes
// dead in the log.
func compactionSeed() []byte {
	const (
		push3PE0 = 35 // 35%5 = PE 0, 1+(35>>4)%3 = 3 nodes
		push3PE1 = 36 // PE 1, 3 nodes
		sweep    = 9
		faultAll = 12
	)
	b := []byte{0, 0}
	for l := 0; l < 3; l++ {
		b = append(b, 0, push3PE0)
	}
	b = append(b, sweep, 0)
	for l := 0; l < 20; l++ {
		b = append(b, 0, push3PE1)
	}
	for len(b) < 2048 {
		b = append(b, sweep, 0, faultAll, 1)
	}
	return b
}

// rewindSeed is a script at KeepLevels 1 and a one-node budget in which
// PE 1 alone spills: twenty levels of three nodes, then rounds of a sweep
// (its bottom nineteen levels out as one frame), three pops (its resident
// level gone), a Barrier (the frame back, through a read window) and a
// push (twenty levels again).  Every frame is restored by a Barrier, so
// when the dead bytes pass compactFloor nothing is live, and the sweep's
// compaction is a rewind to offset 0 with the last Barrier's window still
// held: the append that follows must drop it.  A FaultAll ends the script.
func rewindSeed() []byte {
	const (
		push3PE1 = 36 // PE 1, 3 nodes
		pop      = 6
		sweep    = 9
		barrier  = 11
		faultAll = 12
	)
	b := []byte{0, 0}
	for l := 0; l < 20; l++ {
		b = append(b, 0, push3PE1)
	}
	for len(b)+14 <= 2048 {
		b = append(b, sweep, 0, pop, 1, pop, 1, pop, 1, barrier, 0, 0, push3PE1)
	}
	return append(b, faultAll, 1)
}

// FuzzResidencySequence fuzzes the order of residency events, not the
// bytes of a segment: the input drives pushes, pops, bottom-node donations,
// sweeps, barriers, full faults and reset-and-reinstall on a budgeted
// arena, and runResidency holds it to an unbounded shadow.
func FuzzResidencySequence(f *testing.F) {
	for _, s := range residencySeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runResidency(t, data) })
}

// TestResidencySeedsThrash keeps the seed corpus worth running: plain
// "go test" must push at least 200 evictions through the scripts and
// compact the log at least once.
func TestResidencySeedsThrash(t *testing.T) {
	var total Stats
	compactions := 0
	for _, s := range residencySeeds() {
		st, n := runResidency(t, s)
		total.Evictions += st.Evictions
		total.Faults += st.Faults
		compactions += n
	}
	if total.Evictions < 200 || total.Faults < 200 {
		t.Fatalf("the seed corpus reaches %d evictions and %d faults, want at least 200 of each", total.Evictions, total.Faults)
	}
	if compactions == 0 {
		t.Fatal("no seed script compacts the log")
	}
	t.Logf("%d evictions, %d faults, %d compactions", total.Evictions, total.Faults, compactions)
}
