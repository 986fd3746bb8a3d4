// Package spill bounds the resident memory of a lock-step search by
// evicting the coldest stack levels to disk and restoring them on demand.
//
// The paper's schemes assume every PE's whole DFS stack fits in PE
// memory, which caps the largest search a node can run at RAM.  Related
// work on space-bounded combinatorial search (Pietracaprina et al.,
// "Space-Efficient Parallel Algorithms for Combinatorial Search
// Problems") shows bounded memory can be traded for modest extra work
// without losing correctness; this package applies the idea to the
// engine's arena: the bottom-of-stack level windows are cold — only
// bottom-node donation ever touches them, and in depth-first order they
// are the last work a PE will reach — so they spill first, as versioned
// segment frames in one on-disk log, and fault back in at cycle
// boundaries when a pop runs out of resident work or a transfer needs the
// whole stack.
//
// Determinism is the design constraint, not an afterthought.  Every
// evict/restore decision is a pure function of the global schedule —
// cycle number, per-PE resident occupancy, and the configured budget —
// never of timing, map order or allocator behaviour.  Eviction keeps the
// quantities the schedule observes (total stack sizes, the has-work and
// can-split bitsets, the trigger ledger) bit-identical, so schedules,
// traces, checkpoints and steal frames are byte-identical with spill
// enabled or disabled; internal/spill's equivalence tests enforce this
// across every Table 1 scheme.
//
// Crash-recovery contract: the segment log is reconstructible cache
// state, not durable state.  Checkpoints reabsorb spilled levels before
// encoding (the machine faults everything in at snapshot boundaries), so
// a spooled SCKP file is always self-contained; after a crash the job
// resumes from its checkpoint and NewManager wipes whatever log the dead
// run left behind.
package spill

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"simdtree/internal/simd"
	"simdtree/internal/stack"
	"simdtree/internal/wire"
)

// DefaultKeepLevels is the number of resident levels an eviction leaves
// in memory: the top of the stack (popped every cycle) and one level of
// slack so a pop that drains the top level does not fault immediately.
const DefaultKeepLevels = 2

// Config configures a Manager.
type Config struct {
	// Dir is the segment directory, home of the manager's one segment
	// log.  It is created if missing, and any *.sspl files already in it
	// (a crashed run's leftovers) are removed: segments are cache, the
	// checkpoint spool is the source of truth.
	Dir string
	// MemBudget is the resident-node budget in bytes; at most
	// MemBudget/NodeBytes nodes stay in memory across all PEs.  Zero or
	// negative disables eviction (the manager still restores anything a
	// snapshot restore left on disk).
	MemBudget int64
	// NodeBytes is the encoded size of one node (wire.NodeSize of the
	// root), the deterministic per-node accounting unit.  It must be
	// positive when MemBudget is.
	NodeBytes int
	// KeepLevels is the number of resident levels an eviction keeps;
	// 0 selects DefaultKeepLevels.
	KeepLevels int
}

// Stats counts the manager's disk traffic.  They are deliberately kept
// out of metrics.Stats: the schedule statistics must be byte-identical
// with spill on or off, so residency activity reports on the side.
type Stats struct {
	// Evictions is the number of segments written.
	Evictions int64
	// Faults is the number of segments restored.
	Faults int64
	// BytesWritten and BytesRead total the segment frame traffic.
	BytesWritten int64
	BytesRead    int64
	// SegmentsLive is the number of live frames in the segment log:
	// evicted and not yet restored or discarded.
	SegmentsLive int
	// PeakResident is the largest resident-node total observed at a
	// sweep boundary.
	PeakResident int
}

// logName is the manager's segment log in Config.Dir, and altLogName the
// file a compaction copies it into; the two swap roles at every
// compaction.  The .sspl suffix keeps both inside NewManager's crash wipe.
const (
	logName    = "segments.sspl"
	altLogName = "segments.alt.sspl"
)

// A sweep compacts the log before it appends when the log's dead bytes
// (frames restored or discarded since they were written) exceed both its
// live bytes and compactFloor: the floor keeps a small log from being
// rewritten every few sweeps, the live half caps the copy at one byte per
// byte reclaimed.  Compaction and Barrier read the log through windows of
// compactChunk bytes (see readWindow).
const (
	compactFloor = 64 << 10
	compactChunk = 64 << 10
)

// ErrClosed is returned by every residency operation after Close.
var ErrClosed = errors.New("spill: manager closed")

// segRef is one live frame in the log: where it sits, and the bookkeeping
// needed to verify the restore matches what was evicted.
type segRef struct {
	seq    uint64
	nodes  int
	levels int
	off    int64
	size   int
}

// victim is one eviction of the sweep in progress: the bottom `levels`
// levels of PE pe, encoded as a frame of size bytes.
type victim struct{ pe, levels, size int }

// Manager owns the segment store of one machine: a per-PE LIFO of
// evicted bottom-level segments, the deterministic eviction policy, and
// the fault paths the engine calls at cycle boundaries.  It implements
// simd.Spiller.  A Manager is not safe for concurrent use; the engine
// calls it only from the sequential sections of the run loop.
//
// Segments live in one append-only log file, opened at the first
// eviction.  An over-budget sweep appends all its victims' SSPL frames
// with one WriteAt.  A Barrier reads the frames it restores with one
// ReadAt of the log span they lie in (one per compactChunk bytes of it),
// and a FaultAll decodes a frame from the bytes the last Barrier read when
// the frame lies among them, and otherwise reads that one frame.  Restored
// and discarded frames leave dead bytes behind, which compaction (see
// compactFloor) reclaims, so the log stays within twice the peak live
// frame bytes plus the floor.
type Manager[S any] struct {
	codec       wire.Codec[S]
	dir         string
	budgetNodes int
	keep        int

	open      func(name string) (logFile, error) // openLog; tests substitute a failing file
	log       logFile
	closed    bool
	end       int64 // first byte past the last frame appended to the log
	liveBytes int64 // bytes of the live frames; end-liveBytes are dead

	// Scratch reused across events, so a warmed-up thrash allocates
	// nothing: the frames being written and the frame being read, the
	// decoded levels, the evictable PEs and the victims of the sweep in
	// progress (see Sweep), and the PEs a Barrier restores.
	frame  []byte
	nodes  []S
	counts []int
	cand   []uint64
	batch  []victim
	due    []int

	// win holds the log's bytes [winOff, winOff+len(win)) as the last
	// readWindow read them; it is emptied whenever the log changes under
	// it (see dropWindow), so its bytes are always the log's.
	win    []byte
	winOff int64

	seq   uint64
	segs  [][]segRef // per-PE LIFO, newest last
	live  int
	stats Stats
}

// NewManager builds a segment store in cfg.Dir, wiping stale segments
// from a previous incarnation of the job.
func NewManager[S any](c wire.Codec[S], cfg Config) (*Manager[S], error) {
	if c == nil {
		return nil, errors.New("spill: nil codec")
	}
	if cfg.MemBudget > 0 && cfg.NodeBytes <= 0 {
		return nil, errors.New("spill: a memory budget needs a positive NodeBytes")
	}
	if cfg.Dir == "" {
		return nil, errors.New("spill: empty segment directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	if err := wipeSegments(cfg.Dir); err != nil {
		return nil, err
	}
	keep := cfg.KeepLevels
	if keep <= 0 {
		keep = DefaultKeepLevels
	}
	budget := 0
	if cfg.MemBudget > 0 {
		budget = int(cfg.MemBudget / int64(cfg.NodeBytes))
		if budget < 1 {
			budget = 1
		}
	}
	return &Manager[S]{codec: c, dir: cfg.Dir, budgetNodes: budget, keep: keep, open: openLog}, nil
}

// logFile is what the manager needs of its segment log.  An *os.File in
// every run; the field Manager.open is the seam through which tests put a
// file that fails like a full or torn disk in its place.
type logFile interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	Name() string
}

// openLog creates (or truncates) the segment log.
func openLog(name string) (logFile, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Attach gives a memory-bounded machine its residency manager: built for
// budget bytes of nodes the size of root, keeping its log under dir — a
// private temp directory when dir is "" — and registered with SetSpiller.
// The returned cleanup is the run's to defer: it closes the log, so the
// descriptor goes with the run and not at some later GC, and removes the
// directory either way — segments are a residency cache, not state; a
// checkpoint alone resumes the run.  Manager.Stats stays readable after it.
func Attach[S any](m *simd.Machine[S], codec wire.Codec[S], root S, budget int64, dir string) (*Manager[S], func(), error) {
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "simdspill-*"); err != nil {
			return nil, nil, fmt.Errorf("spill: %w", err)
		}
	}
	cleanup := func() {
		os.RemoveAll(dir) //lint:allow errdrop leftover segments are wiped again at the next NewManager
	}
	mgr, err := NewManager[S](codec, Config{Dir: dir, MemBudget: budget, NodeBytes: wire.NodeSize(codec, root)})
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	m.SetSpiller(mgr)
	return mgr, func() {
		mgr.Close() //lint:allow errdrop the log is cache: nothing to lose if this fails
		cleanup()
	}, nil
}

// wipeSegments removes every *.sspl file under dir — the crash-recovery
// step: a dead run's segments describe arena state that no longer
// exists, and the resumed run rebuilds its own.
func wipeSegments(dir string) error {
	names, err := filepath.Glob(filepath.Join(dir, "*.sspl"))
	if err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	for _, name := range names {
		if err := os.Remove(name); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("spill: %w", err)
		}
	}
	return nil
}

// Dir returns the segment directory.
func (m *Manager[S]) Dir() string { return m.dir }

// BudgetNodes returns the resident-node budget (0 when eviction is
// disabled).
func (m *Manager[S]) BudgetNodes() int { return m.budgetNodes }

// Stats returns the cumulative disk-traffic counters.
func (m *Manager[S]) Stats() Stats {
	st := m.stats
	st.SegmentsLive = m.live
	return st
}

// ensure sizes the per-PE bookkeeping to p PEs.
func (m *Manager[S]) ensure(p int) {
	if len(m.segs) < p {
		segs := make([][]segRef, p)
		copy(segs, m.segs)
		m.segs = segs
		m.cand = make([]uint64, 0, p)
	}
}

// Barrier restores enough work for the next expansion cycle: every PE
// that still has evicted levels but no resident node gets its newest
// segment faulted back in, so the one pop the cycle performs on it finds
// the true top of the stack.  It runs at cycle boundaries, before the
// cycle, and is a no-op (two compares) when nothing is spilled.
//
// The due frames are restored in log order, decoded from windows of the
// log (see readWindow) that each start at the first frame not yet
// restored and end at the last due frame's end: one ReadAt when the due
// frames lie within compactChunk bytes, as a thrashing run's nearly always
// do.  A window that cannot be read is no error of its own: restoreNewest
// then reads its frames one at a time, and the first that fails is the
// error.  The last window is kept for the donor faults of the cycle's
// balancing phase.
func (m *Manager[S]) Barrier(a *stack.Arena[S]) error {
	if m.closed {
		return ErrClosed
	}
	if m.live == 0 {
		return nil
	}
	due, hi := m.due[:0], int64(0)
	for pe := range m.segs {
		if len(m.segs[pe]) == 0 {
			continue
		}
		if a.Ghost(pe) == 0 {
			// The PE was cleared or reinstalled since the eviction; its
			// segments describe state that no longer exists.
			m.discard(pe)
			continue
		}
		if a.Resident(pe) == 0 {
			due = append(due, pe)
			hi = max(hi, m.newest(pe).end())
		}
	}
	m.due = due
	slices.SortFunc(due, func(x, y int) int { return cmp.Compare(m.newest(x).off, m.newest(y).off) })
	for i := 0; i < len(due); {
		first := m.newest(due[i])
		n, _ := m.readWindow(first.off, hi, first.size) //lint:allow errdrop restoreNewest reads a failed window's frames one at a time and returns their errors
		for ; i < len(due) && m.newest(due[i]).end() <= first.off+n; i++ {
			if err := m.restoreNewest(a, due[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// newest is PE pe's most recent live frame.
func (m *Manager[S]) newest(pe int) segRef {
	refs := m.segs[pe]
	return refs[len(refs)-1]
}

// end is the offset just past the frame.
func (r segRef) end() int64 { return r.off + int64(r.size) }

// Sweep enforces the budget: while the resident-node total exceeds it,
// the PE with the most resident nodes (ties to the lowest index — a pure
// function of the schedule) has all but its top KeepLevels levels
// evicted as one segment.  It runs at cycle boundaries, after expansion
// and any balancing phase; when every PE is already at its keep floor
// the arena stays over budget rather than stalling the search.
//
// Within one sweep an eviction changes only its victim, and leaves it at
// the keep floor, where it cannot be chosen again.  The victims are
// therefore the PEs that were evictable when the sweep began, in (resident
// nodes descending, index ascending) order, until the total fits: the one
// pass that sums the total also collects them, and only an over-budget
// sweep orders them — as a max-heap of resident<<32 | ^pe keys built once
// — so a sweep is O(P) and an eviction O(log P).  Nothing is kept between
// sweeps or maintained at push or pop time.  The victims are evicted
// together (see evict): one write for the whole sweep, and nothing
// evicted if it fails.
func (m *Manager[S]) Sweep(a *stack.Arena[S]) error {
	if m.closed {
		return ErrClosed
	}
	if m.budgetNodes <= 0 {
		return nil
	}
	p := a.P()
	m.ensure(p)
	total, cand := 0, m.cand[:0]
	for pe := 0; pe < p; pe++ {
		n := a.Resident(pe)
		total += n
		if a.ResidentDepth(pe) > m.keep {
			cand = append(cand, uint64(n)<<32|uint64(^uint32(pe)))
		}
	}
	if total > m.stats.PeakResident {
		m.stats.PeakResident = total
	}
	if total <= m.budgetNodes {
		return nil
	}
	for i := len(cand)/2 - 1; i >= 0; i-- {
		siftDown(cand, i)
	}
	m.batch = m.batch[:0]
	for total > m.budgetNodes && len(cand) > 0 {
		pe := int(^uint32(cand[0]))
		k := a.ResidentDepth(pe) - m.keep
		a.ForEachBottomLevel(pe, k, func(lv []S) { total -= len(lv) })
		m.batch = append(m.batch, victim{pe: pe, levels: k})
		last := len(cand) - 1
		cand[0] = cand[last]
		cand = cand[:last]
		siftDown(cand, 0)
	}
	return m.evict(a)
}

// siftDown restores the max-heap order of h below index i.
func siftDown(h []uint64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[i] >= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// FaultAll restores every evicted segment of PE pe, newest first, so the
// whole stack is resident — the precondition for bottom removal, stack
// splits, donation and serialisation.
func (m *Manager[S]) FaultAll(a *stack.Arena[S], pe int) error {
	if m.closed {
		return ErrClosed
	}
	if pe >= len(m.segs) || len(m.segs[pe]) == 0 {
		return nil
	}
	if a.Ghost(pe) == 0 {
		m.discard(pe)
		return nil
	}
	for len(m.segs[pe]) > 0 {
		if err := m.restoreNewest(a, pe); err != nil {
			return err
		}
	}
	if g := a.Ghost(pe); g != 0 {
		return fmt.Errorf("spill: PE %d still owes %d ghost nodes after full restore: %w", pe, g, ErrCorrupt)
	}
	return nil
}

// Reset discards every segment — the machine's state was replaced
// wholesale (a snapshot restore), so nothing in the log describes it any
// more — and rewinds the log: the next eviction writes at offset 0.
func (m *Manager[S]) Reset() error {
	for pe := range m.segs {
		m.segs[pe] = m.segs[pe][:0]
	}
	m.live, m.end, m.liveBytes = 0, 0, 0
	m.dropWindow()
	return nil
}

// Close closes and removes the segment log.  It is idempotent; after it,
// Barrier, Sweep and FaultAll return ErrClosed.  A long-lived process
// calls it when the run ends, so that a finished job does not hold its
// descriptor until the garbage collector finalises the file.
func (m *Manager[S]) Close() error {
	log := m.log
	m.log, m.closed = nil, true
	m.dropWindow()
	if log == nil {
		return nil
	}
	if err := errors.Join(log.Close(), os.Remove(log.Name())); err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	return nil
}

// discard drops PE pe's segments without restoring them.
func (m *Manager[S]) discard(pe int) {
	for _, ref := range m.segs[pe] {
		m.liveBytes -= int64(ref.size)
	}
	m.live -= len(m.segs[pe])
	m.segs[pe] = m.segs[pe][:0]
}

// evict moves the bottom levels of every victim in m.batch out of memory:
// it encodes their frames back to back, in batch order, appends them to
// the log with one WriteAt, and only then drops the levels from the arena
// and records the refs.  Encoding reads only the victims' own levels, so
// encoding every frame before dropping any yields the frames that
// evicting one victim at a time would.  A sweep is all or nothing: if
// opening, compacting or writing the log fails, no victim is evicted, the
// sequence numbers are not spent, and every ref still restores.
func (m *Manager[S]) evict(a *stack.Arena[S]) error {
	if len(m.batch) == 0 {
		return nil
	}
	if m.log == nil {
		f, err := m.open(filepath.Join(m.dir, logName))
		if err != nil {
			return fmt.Errorf("spill: %w", err)
		}
		m.log = f
	} else if dead := m.end - m.liveBytes; dead > m.liveBytes && dead > compactFloor {
		if err := m.compact(); err != nil {
			return err
		}
	}
	m.frame = m.frame[:0]
	for i := range m.batch {
		v := &m.batch[i]
		n := len(m.frame)
		m.frame = AppendSegment(m.frame, m.codec, a, v.pe, m.seq+uint64(i)+1, v.levels)
		v.size = len(m.frame) - n
	}
	// After a compaction's rewind the append lands on bytes the window may
	// hold; a failed or torn write may have changed them too.
	m.dropWindow()
	if _, err := m.log.WriteAt(m.frame, m.end); err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	off := m.end
	for _, v := range m.batch {
		m.seq++
		nodes := a.DropBottom(v.pe, v.levels)
		m.segs[v.pe] = append(m.segs[v.pe], segRef{seq: m.seq, nodes: nodes, levels: v.levels, off: off, size: v.size})
		off += int64(v.size)
	}
	n := int64(len(m.frame))
	m.end += n
	m.liveBytes += n
	m.live += len(m.batch)
	m.stats.Evictions += int64(len(m.batch))
	m.stats.BytesWritten += n
	return nil
}

// compact reclaims the log's dead bytes.  With no live frame that is a
// rewind to offset 0, as in Reset (evict's append then drops the window).
// Otherwise it opens a fresh file under the other log name, copies the
// live frames into it densely and in offset order — one window of the old
// log, then one WriteAt of the live frames in it — and only once every
// copy succeeded moves the refs, switches files and removes the old one.
// A failed compaction removes the fresh file and leaves the old log and
// every ref as they were.  A copying compaction, failed or not, drops the
// window: it packs the window's bytes in place, and moves its offsets.
func (m *Manager[S]) compact() error {
	if m.liveBytes == 0 {
		m.end = 0
		return nil
	}
	name := logName
	if filepath.Base(m.log.Name()) == logName {
		name = altLogName
	}
	f, err := m.open(filepath.Join(m.dir, name))
	if err != nil {
		return fmt.Errorf("spill: compacting the segment log: %w", err)
	}
	defer m.dropWindow()
	order := make([]*segRef, 0, m.live)
	for pe := range m.segs {
		for i := range m.segs[pe] {
			order = append(order, &m.segs[pe][i])
		}
	}
	slices.SortFunc(order, func(x, y *segRef) int { return cmp.Compare(x.off, y.off) })
	var out int64
	for i := 0; i < len(order); {
		start := order[i].off
		n, err := m.readWindow(start, m.end, order[i].size)
		if err != nil {
			return abandon(f, err)
		}
		buf := m.win
		w := 0
		for ; i < len(order) && order[i].end() <= start+n; i++ {
			at := int(order[i].off - start)
			w += copy(buf[w:], buf[at:at+order[i].size])
		}
		if _, err := f.WriteAt(buf[:w], out); err != nil {
			return abandon(f, err)
		}
		out += int64(w)
	}
	var off int64
	for _, r := range order {
		r.off = off
		off += int64(r.size)
	}
	old := m.log
	m.log, m.end = f, off
	if err := errors.Join(old.Close(), os.Remove(old.Name())); err != nil {
		return fmt.Errorf("spill: compacting the segment log: %w", err)
	}
	return nil
}

// readWindow reads the log from start, where a frame of need bytes begins,
// up to limit, but no more than compactChunk bytes — or need, for a frame
// larger than that — into win, with one ReadAt.  It returns the length n
// of the span it was asked for, [start, start+n), whether or not the read
// succeeded; a window that failed is dropped.  win is grown only when the
// first window or a larger frame needs it.
func (m *Manager[S]) readWindow(start, limit int64, need int) (int64, error) {
	size := max(compactChunk, need)
	if cap(m.win) < size {
		m.win = make([]byte, 0, size)
	}
	n := min(int64(size), limit-start)
	m.win, m.winOff = m.win[:n], start
	if err := m.readLog(m.win, start); err != nil {
		m.dropWindow()
		return n, err
	}
	return n, nil
}

// dropWindow forgets the window's bytes; the log is about to change or
// just has.
func (m *Manager[S]) dropWindow() { m.win = m.win[:0] }

// readLog fills b from the log at off; a read that runs off the end of the
// file is ErrTruncated.
func (m *Manager[S]) readLog(b []byte, off int64) error {
	_, err := m.log.ReadAt(b, off)
	if errors.Is(err, io.EOF) {
		return ErrTruncated
	}
	return err
}

// abandon closes and removes the fresh file of a failed compaction.
func abandon(f logFile, err error) error {
	return fmt.Errorf("spill: compacting the segment log: %w", errors.Join(err, f.Close(), os.Remove(f.Name())))
}

// restoreNewest faults PE pe's most recent segment back in: the levels
// directly below the resident window, by LIFO construction.  The frame is
// decoded from the window when it lies entirely inside it, and read on its
// own otherwise.  The decoded frame is verified against the eviction
// bookkeeping before it touches the arena; a read that runs off the end of
// the log is ErrTruncated, a damaged frame ErrChecksum, a frame that is
// not the one evicted ErrCorrupt, and each leaves the PE as it was.
func (m *Manager[S]) restoreNewest(a *stack.Arena[S], pe int) error {
	ref := m.newest(pe)
	fail := func(err error) error {
		return fmt.Errorf("spill: segment %d of PE %d at log offset %d: %w", ref.seq, pe, ref.off, err)
	}
	var b []byte
	if at := ref.off - m.winOff; at >= 0 && ref.end()-m.winOff <= int64(len(m.win)) {
		b = m.win[at:][:ref.size]
	} else {
		b = m.frame[:ref.size] // fits: every live frame was encoded in m.frame
		if err := m.readLog(b, ref.off); err != nil {
			return fail(err)
		}
	}
	gotPE, gotSeq, nodes, counts, err := DecodeSegment(m.codec, b, m.nodes[:0], m.counts[:0])
	if err != nil {
		return fail(err)
	}
	m.nodes, m.counts = nodes, counts
	if gotPE != pe || gotSeq != ref.seq {
		return fail(fmt.Errorf("frame is PE %d seq %d: %w", gotPE, gotSeq, ErrCorrupt))
	}
	if len(nodes) != ref.nodes || len(counts) != ref.levels {
		return fail(fmt.Errorf("frame holds %d nodes in %d levels, evicted %d in %d: %w",
			len(nodes), len(counts), ref.nodes, ref.levels, ErrCorrupt))
	}
	a.PrependLevels(pe, nodes, counts)
	m.segs[pe] = m.segs[pe][:len(m.segs[pe])-1]
	m.liveBytes -= int64(ref.size)
	m.live--
	m.stats.Faults++
	m.stats.BytesRead += int64(ref.size)
	return nil
}
