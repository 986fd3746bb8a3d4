package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"simdtree/internal/metrics"
	"simdtree/internal/simd"
	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
	"simdtree/internal/trace"
	"simdtree/internal/wire"
)

// sampleSnapshot builds a hand-made snapshot exercising every format
// feature: a parked PE (empty stack), multi-level stacks, domain state,
// a donor-capturing trace, and IDA* iteration state.  It is independent
// of the engine so the golden file pins the *format*, not the schedule.
func sampleSnapshot() *simd.Snapshot[synthetic.Node] {
	node := func(budget int64, seed uint64) synthetic.Node {
		return synthetic.Node{Budget: budget, Seed: seed}
	}
	stacks := stack.NewArena[synthetic.Node](4) // PE 2 is parked: an empty stack
	stacks.PushLevel(0, []synthetic.Node{node(100, 1)})
	stacks.PushLevel(0, []synthetic.Node{node(40, 2), node(30, 3)})
	stacks.PushLevel(1, []synthetic.Node{node(90, 4)})
	stacks.PushLevel(3, []synthetic.Node{node(80, 5)})
	stacks.PushLevel(3, []synthetic.Node{node(25, 6)})
	stacks.PushLevel(3, []synthetic.Node{node(7, 7), node(6, 8), node(5, 9)})
	return &simd.Snapshot[synthetic.Node]{
		Cycle:          17,
		Stacks:         stacks,
		MatcherPointer: 2,
		Ledger: simd.Ledger{
			InitDone:     true,
			PhaseCycles:  5,
			PhaseElapsed: 5 * time.Microsecond,
			PhaseWork:    18 * time.Microsecond,
			PhaseIdle:    2 * time.Microsecond,
			EstLB:        9 * time.Microsecond,
			Stats: metrics.Stats{
				P: 4, W: 61, Goals: 1,
				Cycles: 17, LBPhases: 3, Transfers: 5,
				InitCycles: 2, InitPhases: 1,
				Tcalc: 61 * time.Microsecond, Tidle: 7 * time.Microsecond,
				Tlb: 4 * time.Microsecond, Tpar: 18 * time.Microsecond,
				PeakStack: 9, MaxTransfer: 4,
			},
		},
		DomainState: []byte{0x2a, 0x04},
		Trace: &trace.Trace{
			CaptureDonors: true,
			Samples: []trace.Sample{
				{Cycle: 1, Active: 4, R1: time.Microsecond, R2: 2 * time.Microsecond},
				{Cycle: 2, Active: 3, R1: 3 * time.Microsecond, R2: 4 * time.Microsecond},
			},
			Events: []trace.Event{
				{Cycle: 1, Transfers: 2, Cost: 6 * time.Microsecond, Donors: []int{0, 3}},
				{Cycle: 2, Transfers: 0, Cost: 0, Donors: []int{}},
			},
		},
		IDA: &simd.IDAState{
			Iteration: 2,
			Bound:     44,
			Done: []simd.IterationStat{
				{Bound: 40, Stats: metrics.Stats{P: 4, W: 10, Cycles: 4, Tcalc: 10 * time.Microsecond}},
				{Bound: 42, Stats: metrics.Stats{P: 4, W: 20, Cycles: 7, Tcalc: 20 * time.Microsecond}},
			},
		},
	}
}

var sampleMeta = Meta{
	Domain:   "synthetic(w=4000,seed=3)",
	Scheme:   "GP-DK",
	Topology: "hypercube",
	Extra:    []byte(`{"job":"demo"}`),
}

func encodeSample(t *testing.T) []byte {
	t.Helper()
	b, err := Encode[synthetic.Node](wire.SyntheticCodec{}, sampleMeta, sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRoundTrip(t *testing.T) {
	b := encodeSample(t)
	meta, snap, err := Decode[synthetic.Node](wire.SyntheticCodec{}, b)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Domain != sampleMeta.Domain || meta.Scheme != sampleMeta.Scheme ||
		meta.Topology != sampleMeta.Topology || meta.Codec != "synthetic" ||
		meta.P != 4 || !bytes.Equal(meta.Extra, sampleMeta.Extra) {
		t.Errorf("meta mismatch: %+v", meta)
	}
	// The format is canonical: re-encoding the decoded checkpoint must
	// reproduce the input bytes exactly.
	b2, err := Encode[synthetic.Node](wire.SyntheticCodec{}, meta, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("decode→encode is not byte-identical")
	}
	want := sampleSnapshot()
	if snap.Cycle != want.Cycle || snap.InitDone != want.InitDone ||
		snap.MatcherPointer != want.MatcherPointer || snap.Stats != want.Stats ||
		snap.EstLB != want.EstLB || snap.PhaseCycles != want.PhaseCycles {
		t.Errorf("snapshot fields mismatch: %+v", snap)
	}
	for i := 0; i < want.Stacks.P(); i++ {
		if snap.Stacks.Size(i) != want.Stacks.Size(i) || snap.Stacks.Depth(i) != want.Stacks.Depth(i) {
			t.Errorf("stack %d: size %d depth %d, want %d/%d", i,
				snap.Stacks.Size(i), snap.Stacks.Depth(i), want.Stacks.Size(i), want.Stacks.Depth(i))
		}
	}
}

func TestPeek(t *testing.T) {
	b := encodeSample(t)
	meta, err := Peek(b)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Scheme != "GP-DK" || meta.Codec != "synthetic" || meta.P != 4 {
		t.Errorf("peeked meta: %+v", meta)
	}
}

func TestDecodeErrors(t *testing.T) {
	valid := encodeSample(t)
	// seal appends a fresh CRC to a CRC-less body, so the corruption
	// under test is reached rather than masked by a checksum mismatch.
	seal := func(body []byte) []byte {
		return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	}
	body := append([]byte(nil), valid[:len(valid)-crc32.Size]...)
	cases := []struct {
		name string
		b    []byte
		want error
		// peekOK marks corruptions that live in the body, which Peek
		// (a header read) legitimately does not see.
		peekOK bool
	}{
		{"empty", nil, ErrTruncated, false},
		{"short", []byte("SC"), ErrTruncated, false},
		{"bad magic", append([]byte("NOPE"), valid[4:]...), ErrBadMagic, false},
		{"wrong version", seal(append([]byte("SCKP\x02"), body[5:]...)), ErrVersion, false},
		{"bit flip", flipBit(valid, 40), ErrChecksum, false},
		{"truncated body", valid[:len(valid)-12], ErrChecksum, false},
		{"trailing bytes", seal(append(append([]byte(nil), body...), 0xEE)), ErrCorrupt, true},
		{"header only", valid[:6], ErrTruncated, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Decode[synthetic.Node](wire.SyntheticCodec{}, tc.b); !errors.Is(err, tc.want) {
				t.Errorf("Decode = %v, want %v", err, tc.want)
			}
			if _, err := Peek(tc.b); (err == nil) != tc.peekOK {
				t.Errorf("Peek err = %v, want failure=%v", err, !tc.peekOK)
			}
		})
	}
}

// TestDecodeRejectsNonCanonicalPayload closes the hole the shared reader
// exposed: a CRC-valid checkpoint that spells a value a second way — a
// stack payload's level count or a synthetic node's budget as a two-byte
// varint, or the trace section's donors bit in the snapshot's flags byte —
// used to decode and then re-encode to different bytes.  Each is now
// ErrCorrupt, so "decode→encode is byte-identical" holds of everything
// Decode accepts.
func TestDecodeRejectsNonCanonicalPayload(t *testing.T) {
	codec := wire.SyntheticCodec{}
	snap := &simd.Snapshot[synthetic.Node]{
		Stacks:         stack.NewArena[synthetic.Node](1),
		MatcherPointer: -1,
		Ledger:         simd.Ledger{Stats: metrics.Stats{P: 1}},
	}
	snap.Stacks.PushLevel(0, []synthetic.Node{{Budget: 11, Seed: 1}})
	valid, err := Encode[synthetic.Node](codec, Meta{Domain: "syn", Scheme: "GP", Topology: "ring"}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode[synthetic.Node](codec, valid); err != nil {
		t.Fatal(err)
	}
	// The one stack blob: length 11 | levels 1 | nodes 1 | budget 22 | seed.
	payload := wire.EncodeArena[synthetic.Node](nil, codec, snap.Stacks, 0)
	blob := bytes.Index(valid, append([]byte{byte(len(payload))}, payload...))
	if blob < 0 {
		t.Fatalf("no stack blob in the %d-byte sample", len(valid))
	}
	// respell replaces the byte at off with a two-byte spelling of the same
	// value, grows the blob's length prefix to match, and reseals.
	respell := func(off int, with ...byte) []byte {
		body := append([]byte(nil), valid[:off]...)
		body = append(append(body, with...), valid[off+1:len(valid)-crc32.Size]...)
		body[blob]++
		return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	}
	flagged := append([]byte(nil), valid[:len(valid)-crc32.Size]...)
	flags := bytes.Index(flagged, []byte("synthetic\x01\x00")) + len("synthetic\x01\x00")
	flagged[flags] |= flagDonors
	cases := []struct {
		name string
		b    []byte
	}{
		{"non-minimal level count", respell(blob+1, 0x81, 0x00)},
		{"non-minimal node count", respell(blob+2, 0x81, 0x00)},
		{"non-minimal node budget", respell(blob+3, 0x96, 0x00)},
		{"trace donors bit in the snapshot flags", binary.LittleEndian.AppendUint32(flagged, crc32.ChecksumIEEE(flagged))},
	}
	for _, tc := range cases {
		if _, _, err := Decode[synthetic.Node](codec, tc.b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = %v, want ErrCorrupt", tc.name, err)
		}
		if _, err := Peek(tc.b); err != nil {
			t.Errorf("%s: Peek = %v; the damage is behind the header", tc.name, err)
		}
	}
}

// uniformSnapshot is a P-stack snapshot with a one-node level under a
// two-node level on every PE.
func uniformSnapshot(p int) *simd.Snapshot[synthetic.Node] {
	snap := &simd.Snapshot[synthetic.Node]{
		Stacks: stack.NewArena[synthetic.Node](p), MatcherPointer: -1, Ledger: simd.Ledger{Stats: metrics.Stats{P: p}},
	}
	for i := 0; i < p; i++ {
		snap.Stacks.PushLevel(i, []synthetic.Node{{Budget: int64(i), Seed: uint64(i)}})
		snap.Stacks.PushLevel(i, []synthetic.Node{{Budget: 5, Seed: 3}, {Budget: 9, Seed: 4}})
	}
	return snap
}

// TestEncodeAllocsDoNotScaleWithP guards the single scratch every stack is
// framed through: a P=1024 snapshot encodes in a handful of buffer growths,
// not an allocation per PE (20 is what the pooled buffer this replaced
// measured on the same snapshot).
func TestEncodeAllocsDoNotScaleWithP(t *testing.T) {
	const p = 1024
	snap := uniformSnapshot(p)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Encode[synthetic.Node](wire.SyntheticCodec{}, sampleMeta, snap); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Errorf("Encode of a P=%d snapshot allocates %v times, want <= 20", p, allocs)
	}
}

// perRun returns the objects and bytes one call of f allocates, averaged
// over runs calls after a warm-up one.
func perRun(runs int, f func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestDecodeAllocsBelowStackForm is Encode's twin for the way back: Decode
// reads every payload through one scratch into a PE sized to it, so a
// decoded snapshot costs the payload blobs and the arena and nothing else.
// The bounds are what the commit before measured on the same checkpoints,
// when each payload became a Stack of its own (a nodes slice, a Stack and a
// growing level list per PE) on its way to the arena.
func TestDecodeAllocsBelowStackForm(t *testing.T) {
	for _, c := range []struct {
		p              int
		objects, bytes float64
	}{{64, 393, 15688}, {4096, 24585, 950858}} {
		blob, err := Encode[synthetic.Node](wire.SyntheticCodec{}, sampleMeta, uniformSnapshot(c.p))
		if err != nil {
			t.Fatal(err)
		}
		objects, bytes := perRun(20, func() {
			if _, _, err := Decode[synthetic.Node](wire.SyntheticCodec{}, blob); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("P=%d: Decode allocates %.0f objects, %.0f bytes (the Stack form: %.0f, %.0f)", c.p, objects, bytes, c.objects, c.bytes)
		if objects > c.objects || bytes > c.bytes {
			t.Errorf("P=%d: Decode allocates %.0f objects, %.0f bytes; want at most %.0f, %.0f", c.p, objects, bytes, c.objects, c.bytes)
		}
	}
}

// TestSnapshotAllocsBelowStackForm is the same bound on Machine.Snapshot,
// sixty cycles into a GP-DK run that has spread over the machine: a clone
// is at most a node buffer and a level table per busy PE, sized to the
// live window.  The commit before allocated a Stack, a level list and a
// slice per level for each.
func TestSnapshotAllocsBelowStackForm(t *testing.T) {
	for _, c := range []struct {
		p              int
		objects, bytes float64
	}{{64, 723, 38840}, {4096, 28297, 1277205}} {
		sch, err := simd.ParseScheme[synthetic.Node]("GP-DK")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		m, err := simd.NewMachine[synthetic.Node](synthetic.New(2_000_000, 3), sch, simd.Options{
			P: c.p, ProgressEvery: 1, Progress: func(pi simd.ProgressInfo) {
				if pi.Stats.Cycles >= 60 {
					cancel()
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := m.RunContext(ctx); !errors.Is(err, context.Canceled) || st.Cycles != 60 {
			t.Fatalf("P=%d: run stopped at cycle %d with %v, want a cancel at 60", c.p, st.Cycles, err)
		}
		objects, bytes := perRun(20, func() {
			if _, err := m.Snapshot(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("P=%d: Snapshot allocates %.0f objects, %.0f bytes (the Stack form: %.0f, %.0f)", c.p, objects, bytes, c.objects, c.bytes)
		if objects > c.objects || bytes > c.bytes {
			t.Errorf("P=%d: Snapshot allocates %.0f objects, %.0f bytes; want at most %.0f, %.0f", c.p, objects, bytes, c.objects, c.bytes)
		}
	}
}

func TestDecodeCodecMismatch(t *testing.T) {
	b := encodeSample(t)
	if _, _, err := Decode[struct{}](badCodec{}, b); !errors.Is(err, ErrCorrupt) {
		t.Errorf("codec mismatch: %v", err)
	}
}

type badCodec struct{}

func (badCodec) Name() string                             { return "bad" }
func (badCodec) AppendNode(buf []byte, _ struct{}) []byte { return buf }
func (badCodec) DecodeNode(b []byte) (struct{}, []byte, error) {
	return struct{}{}, b, nil
}

func flipBit(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x10
	return c
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt")
	write := func(snap *simd.Snapshot[synthetic.Node]) {
		t.Helper()
		b, err := Encode[synthetic.Node](wire.SyntheticCodec{}, sampleMeta, snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(path, b); err != nil {
			t.Fatal(err)
		}
	}
	read := func() (Meta, *simd.Snapshot[synthetic.Node], error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return Meta{}, nil, err
		}
		return Decode[synthetic.Node](wire.SyntheticCodec{}, b)
	}
	write(sampleSnapshot())
	meta, snap, err := read()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Scheme != "GP-DK" || snap.Cycle != 17 {
		t.Errorf("read back meta=%+v cycle=%d", meta, snap.Cycle)
	}
	// Overwrite must be atomic: the new content replaces the old, and no
	// temp files are left behind.
	snap2 := sampleSnapshot()
	snap2.Cycle = 23
	snap2.Stats.Cycles = 23
	write(snap2)
	if _, snap3, err := read(); err != nil || snap3.Cycle != 23 {
		t.Errorf("after overwrite: cycle=%d err=%v", snap3.Cycle, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("spool dir has %d entries after atomic writes, want 1", len(entries))
	}
}
