package stack

import (
	"sync/atomic"

	"simdtree/internal/scan"
)

// Arena holds the working DFS stacks of P processing elements as one
// record per PE: everything a pop or a push reads and writes for a PE — the
// window offsets, the sizes, the ghost counters and the length of the top
// level — sits side by side in one slice element, so the expansion cycle
// streams the records in PE order and chases only the node buffer.
//
// Layout, for the record p of one processing element:
//
//	p.buf[p.head : p.head+p.size]            live nodes, bottom-to-top
//	p.lvl[p.lvlLo : p.lvlLo+p.depth-1]       lengths of the levels below the top, bottom first
//	p.top                                    length of the top level
//
// The top level's length lives in the record, not in the table: a pop
// decrements p.top and goes to the table (a separate heap line) only to
// load the next length when a level empties, a push parks the old p.top in
// the table and sets the new one, and a one-level stack never touches the
// table at all.  Readers walk the table and then p.top; they never write.
// The head offset makes bottom-node removal O(1) (advance head, shrink
// the bottom level) and lets half-stack splits run as one compaction pass
// of range copies.  The offsets and counts are 32-bit, which bounds one
// PE's stack at 2^31-1 nodes and levels (2 GiB of one-byte nodes in a
// single stack) and keeps the record at 80 bytes whatever S is.  Two
// invariants hold at every quiescent point:
//
//  1. Every live level holds at least one node: p.top > 0 iff p.depth > 0,
//     and every table entry in the window is positive.  Empty levels are
//     dropped the moment they form (a pop draining the top level reloads
//     p.top from the table, a bottom removal draining the bottom one
//     advances p.lvlLo), which the search order cannot observe: pops and
//     splits only ever see non-empty levels, and the wire encoding
//     canonically omits empty ones.
//  2. The has-work bitset has bit pe set iff size+ghost > 0, and the
//     can-split bitset iff size+ghost >= 2 — after SyncBits(pe).  The
//     exported per-PE mutators keep the bits fresh themselves; the
//     unexported raw operations (used by the Splitter implementations,
//     which may run on concurrent host shards over arbitrary PE pairs)
//     deliberately do not touch the shared bitset words, and their callers
//     re-sync sequentially afterwards.  ExpandCycle (expand.go), the
//     engine's expansion cycle, is the third kind: raw pops and in-place
//     pushes for a whole 64-PE word, then one store of each of the word's
//     two flag words.
//
// An Arena is not safe for concurrent use except as the engine shards it:
// concurrent mutators must touch disjoint PEs, and flag maintenance for
// PEs that may share a bitset word with another shard's PEs must be
// deferred to a sequential reduction (see simd.Context.TransferAll).
//
// A memory-bounded run may evict the coldest bottom levels of a PE to
// stable storage (see internal/spill): the in-memory window then holds
// only the top of the stack, and the ghost counters record how many nodes
// and levels sit below it on disk.  Everything the schedule observes —
// Size, Depth, Empty, Splittable, and the two bitsets — reports the total
// (resident + ghost), so evicting and restoring is invisible to the
// search order; the record's size/depth/top/lvl state and the raw mutators
// describe the resident window only.  Operations that need the whole
// stack (ForEachLevel, CopyPE, the splitters) are
// only valid on a fully resident PE; the engine faults evicted levels
// back in before calling them.
//
// A PE's first buffer and level table are its home window (see home); a stack
// that outgrows it moves to the heap by the growth paths below, for good.
type Arena[S any] struct {
	pes   []pe[S]
	work  scan.Bits                 // bit pe: total size > 0
	split scan.Bits                 // bit pe: total size >= 2
	homes []atomic.Pointer[home[S]] // one per flag word, nil until its first window is taken
}

// home is the chunk one flag word's PEs take their first buffers from, one
// heap object: PE i of the word owns nodes[i*homeNodes:][:homeNodes] and
// lvl[i*homeLevels:][:homeLevels].  8 and 8 because on the paper's machine a
// stack is a handful of nodes: mid-run at P=65536 (nGP-S1.00, W=2M) the busy
// PEs hold a mean of 1.7 (p50 1, p90 4, p99 7, max 17; depth p99 4), so 99 %
// of them never leave home; at P=8192 (GP-DK, W=20M) a mean of 8.8 (p50 8,
// p90 15; depth p50 5), so half outgrow the window once and leave it idle —
// 1.2 MB there, against the 8.6 MB it saves at P=65536, which 16 would give back.
type home[S any] struct {
	nodes [64 * homeNodes]S
	lvl   [64 * homeLevels]int32
}

const homeNodes, homeLevels = 8, 8

// pe is one processing element's record (see Arena for the layout).
type pe[S any] struct {
	buf   []S
	lvl   []int32
	head  int32
	size  int32 // resident nodes
	top   int32 // length of the top resident level; 0 iff depth == 0
	lvlLo int32
	depth int32 // resident levels, the top one included
	ghost int32 // evicted nodes below the resident window
	ghLvl int32 // evicted levels below the resident window
}

// NewArena returns an arena of p empty stacks.  Nothing is allocated for a
// PE until its flag word's first push (see window), so idle PEs of a large
// machine cost one 80-byte record each.
func NewArena[S any](p int) *Arena[S] {
	words := (p + 63) / 64
	flags := make(scan.Bits, 2*words) // both vectors, one allocation
	return &Arena[S]{
		pes:   make([]pe[S], p),
		work:  flags[:words:words],
		split: flags[words:],
		homes: make([]atomic.Pointer[home[S]], words),
	}
}

// P returns the number of PEs.
func (a *Arena[S]) P() int { return len(a.pes) }

// Size returns the number of live nodes on PE pe's stack, including any
// evicted (ghost) nodes — the quantity the schedule observes.
func (a *Arena[S]) Size(pe int) int { return int(a.pes[pe].size + a.pes[pe].ghost) }

// Empty reports that PE pe has no work at all, resident or evicted.
func (a *Arena[S]) Empty(pe int) bool { return a.Size(pe) == 0 }

// Splittable reports that PE pe's stack can be divided into two non-empty
// parts (the paper's "busy"), counting evicted nodes.
func (a *Arena[S]) Splittable(pe int) bool { return a.Size(pe) >= 2 }

// Depth returns the number of live levels on PE pe's stack, including
// evicted ones.
func (a *Arena[S]) Depth(pe int) int { return int(a.pes[pe].depth + a.pes[pe].ghLvl) }

// Resident returns the number of nodes held in memory for PE pe.
func (a *Arena[S]) Resident(pe int) int { return int(a.pes[pe].size) }

// ResidentDepth returns the number of in-memory levels of PE pe.
func (a *Arena[S]) ResidentDepth(pe int) int { return int(a.pes[pe].depth) }

// Ghost returns the number of evicted nodes sitting on stable storage
// below PE pe's resident window.
func (a *Arena[S]) Ghost(pe int) int { return int(a.pes[pe].ghost) }

// GhostLevels returns the number of evicted levels of PE pe.
func (a *Arena[S]) GhostLevels(pe int) int { return int(a.pes[pe].ghLvl) }

// WorkBits exposes the has-work bitset (bit pe: PE pe has nodes).  It is
// the arena's own storage: callers must treat it as read-only and as
// valid only at quiescent points (after the pending SyncBits calls).
func (a *Arena[S]) WorkBits() scan.Bits { return a.work }

// SplitBits exposes the can-split bitset (bit pe: PE pe holds at least
// two nodes).  Same ownership rules as WorkBits.
func (a *Arena[S]) SplitBits() scan.Bits { return a.split }

// NoWork reports that every PE is empty — the run-loop termination
// reduction, one word compare per 64 PEs.
func (a *Arena[S]) NoWork() bool { return a.work.None() }

// AnySplittable reports that some PE could donate.
func (a *Arena[S]) AnySplittable() bool { return a.split.Any() }

// SyncBits recomputes PE pe's has-work and can-split bits from its total
// size (resident plus ghost, so eviction never flips a flag).  The
// exported mutators call it themselves; callers of a Splitter call it once
// per touched PE, sequentially, after any parallel region.
func (a *Arena[S]) SyncBits(pe int) {
	sz := a.Size(pe)
	a.work.SetTo(pe, sz > 0)
	a.split.SetTo(pe, sz >= 2)
}

// window returns PE pe's home window, allocating its word's chunk the first
// time any of the 64 PEs asks: a run makes O(P/64) allocations, not two for
// every PE that ever receives a node.  The slices are capacity-capped, so an
// append past the window reallocates instead of running into the next PE's.
// Receivers of one word may sit in different shards of a parallel round: the
// chunk is published by compare-and-swap, and a caller writes only its record.
func (a *Arena[S]) window(pe int) ([]S, []int32) {
	slot := &a.homes[pe>>6]
	if slot.Load() == nil {
		slot.CompareAndSwap(nil, new(home[S])) // a loser's chunk is garbage
	}
	h, n, l := slot.Load(), (pe&63)*homeNodes, (pe&63)*homeLevels
	return h.nodes[n : n+homeNodes : n+homeNodes], h.lvl[l : l+homeLevels : l+homeLevels]
}

// newBuf returns where PE pe's stack moves when its buffer of have nodes must
// hold need: home if it has no buffer yet and need fits, else the heap, doubled.
func (a *Arena[S]) newBuf(pe, have, need int) []S {
	if have == 0 && need <= homeNodes {
		nodes, _ := a.window(pe)
		return nodes
	}
	return make([]S, max(2*have, need))
}

// newLvl is newBuf for the level table.
func (a *Arena[S]) newLvl(pe, have, need int) []int32 {
	if have == 0 && need <= homeLevels {
		_, lvl := a.window(pe)
		return lvl
	}
	return make([]int32, max(2*have, need))
}

// ensureTail makes room for n more nodes at PE pe's tail and returns the
// buffer and the index to write the first new node at.  It prefers
// sliding the live window back to the front of the existing buffer
// (reclaiming the space bottom-node removals vacated) over growing.  What it
// leaves is zeroed: a home window outlives the stack's stay, and owes the
// collector no stale pointers and a later first push zeros.
func (p *pe[S]) ensureTail(a *Arena[S], pe, n int) ([]S, int) {
	buf := p.buf
	head, sz := int(p.head), int(p.size)
	if head+sz+n <= len(buf) {
		return buf, head + sz
	}
	if sz+n <= len(buf) {
		p.slideFront()
		return buf, sz
	}
	nb := a.newBuf(pe, len(buf), sz+n)
	copy(nb, buf[head:head+sz])
	clear(buf[head : head+sz])
	p.buf, p.head = nb, 0
	return nb, sz
}

// slideFront moves the live window to the front of the buffer, reclaiming the
// space bottom-node removals vacated, and zeroes the slots it leaves for the GC.
func (p *pe[S]) slideFront() {
	head, sz := int(p.head), int(p.size)
	copy(p.buf, p.buf[head:head+sz])
	clear(p.buf[sz : head+sz])
	p.head = 0
}

// pushLevelLen makes n the length of PE pe's new top level; the old top's
// length, if there was one, moves into the level table.
func (p *pe[S]) pushLevelLen(a *Arena[S], pe, n int) {
	old, d := p.top, int(p.depth)-1 // d: entries in the table window
	p.top = int32(n)
	p.depth++
	if d < 0 {
		return
	}
	lv, lo := p.lvl, int(p.lvlLo)
	switch {
	case lo+d < len(lv):
		lv[lo+d] = old
	case d < len(lv):
		// Slide the live window to the front of the table.
		copy(lv, lv[lo:lo+d])
		p.lvlLo = 0
		lv[d] = old
	default:
		nl := a.newLvl(pe, len(lv), d+1)
		copy(nl, lv[lo:lo+d])
		p.lvl, p.lvlLo = nl, 0
		nl[d] = old
	}
}

// pushLevelRaw copies alts onto PE pe as a deeper level without touching
// the bitsets.  Empty slices are ignored.
func (a *Arena[S]) pushLevelRaw(pe int, alts []S) {
	n := len(alts)
	if n == 0 {
		return
	}
	p := &a.pes[pe]
	buf, tail := p.ensureTail(a, pe, n)
	copy(buf[tail:tail+n], alts)
	p.pushLevelLen(a, pe, n)
	p.size += int32(n)
}

// PushLevel copies the untried alternatives of a newly expanded node onto
// PE pe as a deeper level — a contiguous tail copy plus one level-table
// write — and re-syncs the PE's flag bits; the caller keeps ownership of
// alts.  It is the one-PE-at-a-time push: the asynchronous MIMD baseline
// (internal/mimd) expands through it and the engines seed the root with
// it.  The SIMD engine's cycle does not call it; ExpandCycle has the domain
// append to the PE's buffer itself and stores the flags once per word.
func (a *Arena[S]) PushLevel(pe int, alts []S) {
	a.pushLevelRaw(pe, alts)
	a.SyncBits(pe)
}

// pushOneRaw pushes a single alternative as a deeper level without
// touching the bitsets.
func (a *Arena[S]) pushOneRaw(pe int, node S) {
	p := &a.pes[pe]
	buf, tail := p.ensureTail(a, pe, 1)
	buf[tail] = node
	p.pushLevelLen(a, pe, 1)
	p.size++
}

// popRaw removes and returns the deepest alternative without touching the
// bitsets.
func (a *Arena[S]) popRaw(pe int) (S, bool) {
	var zero S
	p := &a.pes[pe]
	if p.size == 0 {
		return zero, false
	}
	tail := p.head + p.size - 1
	node := p.buf[tail]
	p.buf[tail] = zero // release the reference for the garbage collector
	p.shrinkTop()
	return node, true
}

// shrinkTop books the removal of the PE's top node: the resident size and
// the top level's length drop by one, and when that empties the level the
// one below becomes the top — the only time a pop reads the level table,
// and nothing branches on what it reads.  Small enough to inline into
// popRaw and the expansion kernel's pop phase.
func (p *pe[S]) shrinkTop() {
	p.size--
	p.top--
	if p.top == 0 {
		// Only the decremented top level can have emptied (invariant 1).
		p.depth--
		if p.depth == 0 {
			p.lvlLo, p.head = 0, 0
		} else {
			p.top = p.lvl[p.lvlLo+p.depth-1]
		}
	}
}

// Pop removes and returns the next node in depth-first order: the last
// untried alternative of the deepest level, re-syncing the PE's flag bits.
// It reports false when PE pe has no resident node.  Like PushLevel it is
// the one-PE-at-a-time form, called by internal/mimd (whose PEs run
// asynchronously) and not by the SIMD engine's cycle, which pops through
// ExpandCycle.
func (a *Arena[S]) Pop(pe int) (S, bool) {
	node, ok := a.popRaw(pe)
	if ok {
		a.SyncBits(pe)
	}
	return node, ok
}

// removeBottomRaw removes and returns the first alternative of the bottom
// resident level — the node closest to the root, provided the PE is fully
// resident (no ghost levels below the window) — without touching the
// bitsets.
func (a *Arena[S]) removeBottomRaw(pe int) (S, bool) {
	var zero S
	p := &a.pes[pe]
	if p.size == 0 {
		return zero, false
	}
	node := p.buf[p.head]
	p.buf[p.head] = zero
	p.shrinkBottom()
	return node, true
}

// shrinkBottom books the removal of the PE's bottom node.  Because empty
// levels are dropped as they form, this is O(1): advance the head offset
// and shrink the bottom level, which is the record's top when the stack is
// one level deep.  Like shrinkTop it inlines into its callers.
func (p *pe[S]) shrinkBottom() {
	p.head++
	p.size--
	lvl := &p.top // the bottom level is the top level of a one-level stack
	if p.depth > 1 {
		lvl = &p.lvl[p.lvlLo]
	}
	*lvl--
	if *lvl == 0 {
		p.lvlLo++
		p.depth--
		if p.depth == 0 {
			p.lvlLo, p.head = 0, 0
		}
	}
}

// clearRaw empties PE pe in place without touching the bitsets, zeroing
// the live node window for the garbage collector.  Ghost accounting is
// dropped too — a cleared or reinstalled PE owes nothing to stable
// storage, and the spill manager discards any segments it still holds
// for the PE the next time it looks.
func (a *Arena[S]) clearRaw(pe int) {
	var zero S
	p := &a.pes[pe]
	for i := p.head; i < p.head+p.size; i++ {
		p.buf[i] = zero
	}
	p.head, p.size, p.top = 0, 0, 0
	p.lvlLo, p.depth = 0, 0
	p.ghost, p.ghLvl = 0, 0
}

// Clear empties PE pe, keeping its buffers for reuse.
func (a *Arena[S]) Clear(pe int) {
	a.clearRaw(pe)
	a.SyncBits(pe)
}

// level returns the length slot of the PE's resident level i, counted from
// the bottom: a level-table entry, or the record's top for the top level.
func (p *pe[S]) level(i int) *int32 {
	if i == int(p.depth)-1 {
		return &p.top
	}
	return &p.lvl[int(p.lvlLo)+i]
}

// ForEachLevel calls f on every resident level of PE pe in bottom-to-top
// order.  The slices are the arena's own storage and must not be mutated
// or retained; serialisers use this to preserve level structure without
// copying.  Callers that need the whole stack ensure the PE is fully
// resident first (Ghost(pe) == 0).
func (a *Arena[S]) ForEachLevel(pe int, f func(level []S)) {
	a.ForEachBottomLevel(pe, a.ResidentDepth(pe), f)
}

// AppendLevels copies levels above PE pe's current top — the sibling of
// PrependLevels at the other end of the window, and the install of a
// decoded checkpoint or donation payload: the same level pushes a local
// splitter transfer performs.  nodes holds the levels' nodes bottom level
// first and counts the length of each level; the caller keeps ownership of
// both slices.
func (a *Arena[S]) AppendLevels(pe int, nodes []S, counts []int) {
	if p := &a.pes[pe]; p.buf == nil && len(nodes) > 0 {
		// A PE that never held work is sized to what it is given and takes no
		// window: a decoded snapshot is P such PEs, each read once.
		p.buf, p.lvl = make([]S, len(nodes)), make([]int32, len(counts)-1)
	}
	for _, n := range counts {
		a.pushLevelRaw(pe, nodes[:n])
		nodes = nodes[n:]
	}
	a.SyncBits(pe)
}

// CopyPE replaces PE to's contents with a deep copy of src's PE from, in
// buffers sized exactly to the live window (none at all for an empty PE).
// The source PE must be fully resident.
func (a *Arena[S]) CopyPE(to int, src *Arena[S], from int) {
	q := &src.pes[from]
	rec := pe[S]{
		buf:  append([]S(nil), q.buf[q.head:q.head+q.size]...),
		lvl:  append([]int32(nil), q.lvl[q.lvlLo:q.lvlLo+max(q.depth-1, 0)]...),
		size: q.size, top: q.top, depth: q.depth,
	}
	a.clearRaw(to) // the buffer it leaves may be its home window
	a.pes[to] = rec
	a.SyncBits(to)
}

// Clone returns a deep copy of the arena, every PE as CopyPE leaves it: a
// snapshot's stacks, detached from the machine they were taken from.
func (a *Arena[S]) Clone() *Arena[S] {
	c := NewArena[S](a.P())
	for pe := range a.pes {
		c.CopyPE(pe, a, pe)
	}
	return c
}

// ForEachBottomLevel calls f on the bottom k resident levels of PE pe in
// bottom-to-top order — the eviction serialiser's view of the coldest
// levels.  The slices are the arena's own storage and must not be mutated
// or retained.  k must not exceed ResidentDepth(pe).
func (a *Arena[S]) ForEachBottomLevel(pe, k int, f func(level []S)) {
	p := &a.pes[pe]
	off := int(p.head)
	for i := 0; i < k; i++ {
		n := int(*p.level(i))
		f(p.buf[off : off+n : off+n])
		off += n
	}
}

// DropBottom discards the bottom k resident levels of PE pe from memory,
// marking their nodes as ghost: the total Size/Depth the schedule sees is
// unchanged, the bitsets never flip, and only the resident window
// shrinks.  The caller (the spill manager) has already serialised the
// levels to stable storage and must restore them with PrependLevels, in
// LIFO order, before anything touches the stack below the resident
// window.  It returns the number of nodes dropped.  k must be positive
// and at most ResidentDepth(pe); dropping every resident level is legal
// as long as a restore happens before the next pop.
func (a *Arena[S]) DropBottom(pe, k int) int {
	p := &a.pes[pe]
	nodes := 0
	for i := 0; i < k; i++ {
		nodes += int(*p.level(i))
	}
	var zero S
	head := int(p.head)
	for i := head; i < head+nodes; i++ {
		p.buf[i] = zero
	}
	p.head += int32(nodes)
	p.size -= int32(nodes)
	p.lvlLo += int32(k)
	p.depth -= int32(k)
	if p.depth == 0 {
		p.top, p.lvlLo, p.head = 0, 0, 0
	}
	p.ghost += int32(nodes)
	p.ghLvl += int32(k)
	return nodes
}

// PrependLevels reattaches evicted levels below PE pe's resident window —
// the restore half of DropBottom, undoing the most recent eviction.  nodes
// holds the levels' nodes bottom level first and counts the length of each
// level; the ghost counters shrink by len(nodes) and len(counts), and the
// total Size/Depth and the bitsets are unchanged.  The caller keeps
// ownership of both slices.  Restores allocate only when the vacated space
// in front of the window has since been reclaimed and the buffer has no
// room to slide; a steady evict/restore thrash reuses the same capacity.
func (a *Arena[S]) PrependLevels(pe int, nodes []S, counts []int) {
	n := len(nodes)
	k := len(counts)
	if n == 0 {
		return
	}
	p := &a.pes[pe]
	buf := p.buf
	head, sz := int(p.head), int(p.size)
	switch {
	case head >= n:
		// The space the eviction vacated is still in front of the window.
		head -= n
	case len(buf) >= n+sz:
		// Enough total capacity, wrong position: slide the window right
		// (copy is memmove, overlap-safe) instead of allocating — an
		// evict/restore thrash cycle must not grow the buffer each fault.
		copy(buf[n:n+sz], buf[head:head+sz])
		head = 0
	default:
		nb := a.newBuf(pe, len(buf), n+sz)
		copy(nb[n:], buf[head:head+sz])
		clear(buf[head : head+sz])
		p.buf = nb
		buf = nb
		head = 0
	}
	copy(buf[head:], nodes)
	p.head = int32(head)
	p.size = int32(sz + n)

	// Prepend the level lengths below the live level-table window.  With
	// no resident level the last restored one becomes the top and stays
	// out of the table.
	d := int(p.depth) - 1 // entries in the table window
	if d < 0 {
		d = 0
		p.top = int32(counts[k-1])
		counts = counts[:k-1]
	}
	t := len(counts)
	lv, lo := p.lvl, int(p.lvlLo)
	switch {
	case lo >= t:
		lo -= t
	case len(lv) >= t+d:
		copy(lv[t:t+d], lv[lo:lo+d])
		lo = 0
	default:
		nl := a.newLvl(pe, len(lv), t+d)
		copy(nl[t:], lv[lo:lo+d])
		p.lvl = nl
		lv = nl
		lo = 0
	}
	for i, c := range counts {
		lv[lo+i] = int32(c)
	}
	p.lvlLo = int32(lo)
	p.depth += int32(k)
	p.ghost -= int32(n)
	p.ghLvl -= int32(k)
}

// canDonate reports that the PE's stack may be split: at least two nodes,
// all of them resident.  A donor with levels still evicted is one whose
// restore failed (the engine latched the error and ends the run at the next
// boundary): the bottom of its window is not the bottom of its stack.
func (p *pe[S]) canDonate() bool { return p.size >= 2 && p.ghost == 0 }

// moveOne is the block transfer of the two single-node splitters: the
// bottom node (or, with top set, the deepest one) of every eligible donor.
// Gather — a matching round finds the donors' records and node lines cold,
// and the loop body is a few loads and stores with no call in it
// (shrinkBottom and shrinkTop inline, as in ExpandCycle's pop phase), so
// the block's misses overlap instead of each waiting behind the previous
// pair's push.  Scatter — one single-node push per receiver.
func (a *Arena[S]) moveOne(pairs []scan.Pair, moved []int, nodes []S, top bool) []S {
	if cap(nodes) < len(pairs) {
		nodes = make([]S, len(pairs))
	}
	nodes = nodes[:len(pairs)]
	var zero S
	for k, pr := range pairs {
		p := &a.pes[pr.From]
		if !p.canDonate() {
			moved[k] = 0
			continue
		}
		moved[k] = 1
		at := p.head
		if top {
			at += p.size - 1
		}
		nodes[k], p.buf[at] = p.buf[at], zero
		if top {
			p.shrinkTop()
		} else {
			p.shrinkBottom()
		}
	}
	for k, pr := range pairs {
		if moved[k] != 0 {
			a.pushOneRaw(pr.To, nodes[k])
		}
	}
	return nodes
}

// SplitBlock implements Splitter: the bottom node of every donor moves to
// its receiver in two O(1) steps (head-offset removal, single-node push).
func (BottomNode[S]) SplitBlock(a *Arena[S], pairs []scan.Pair, moved []int, nodes []S) []S {
	return a.moveOne(pairs, moved, nodes, false)
}

// SplitBlock implements Splitter: the single deepest alternative of every
// donor moves to its receiver.
func (TopNode[S]) SplitBlock(a *Arena[S], pairs []scan.Pair, moved []int, nodes []S) []S {
	return a.moveOne(pairs, moved, nodes, true)
}

// SplitBlock implements Splitter, pair by pair: a half-stack split streams
// whole levels and has no cold single node to gather.
func (HalfStack[S]) SplitBlock(a *Arena[S], pairs []scan.Pair, moved []int, nodes []S) []S {
	for k, pr := range pairs {
		moved[k] = a.splitHalf(pr.From, pr.To)
	}
	return nodes
}

// splitHalf is one half-stack split: the first half of every donor level
// is appended to the receiver as contiguous range copies, and the kept
// halves are compacted toward the front of the donor's window in a single
// forward pass.
func (a *Arena[S]) splitHalf(from, to int) int {
	p := &a.pes[from]
	if from == to || !p.canDonate() {
		return 0
	}
	buf := p.buf
	moved := 0
	r, w := int(p.head), int(p.head)
	for i, d := 0, int(p.depth); i < d; i++ {
		lvl := p.level(i)
		n := int(*lvl)
		k := n / 2
		if k > 0 {
			a.pushLevelRaw(to, buf[r:r+k])
			*lvl = int32(n - k)
			moved += k
		}
		if w != r+k {
			copy(buf[w:], buf[r+k:r+n])
		}
		w += n - k
		r += n
	}
	// Zero the vacated tail for the garbage collector.
	var zero S
	for i := w; i < r; i++ {
		buf[i] = zero
	}
	p.size -= int32(moved)
	if moved == 0 {
		// Every level held a single alternative; fall back to the bottom
		// node so the split is still non-empty.
		if node, ok := a.removeBottomRaw(from); ok {
			a.pushOneRaw(to, node)
			moved = 1
		}
	}
	return moved
}
