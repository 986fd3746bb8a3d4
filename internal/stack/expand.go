package stack

import "math/bits"

// Expander is the part of a search domain the expansion kernel calls: the
// goal test and the successor generator (search.Domain has both; this
// package does not import it).
//
// The kernel hands Expand the PE's own stack as buf — the live window, with
// the buffer's spare capacity behind it — so Expand appends only: it never
// reads, writes or retains buf[:len(buf)], and what it returns begins with
// those elements (append's reallocation keeps them).  Filtering what it has
// itself appended is fine.
type Expander[S any] interface {
	Goal(s S) bool
	Expand(s S, buf []S) []S
}

// MaxBatch is the most cycles one ExpandCycle call runs, and the last
// bucket of the size histogram it fills (ExpandScratch.Held).
const MaxBatch = 16

// Expansion is the reduction of one lock-step expansion cycle over a range
// of PEs.
type Expansion struct {
	Expanded int64 // PEs that popped and expanded a node
	Goals    int64 // of those nodes, how many were goals
	Peak     int   // largest total stack size (resident + ghost) after a push
	// NotResident is the first PE whose has-work bit was set while its
	// resident window was empty, -1 when there was none.  Such a PE has
	// nothing in memory to pop (its levels are all evicted and were not
	// restored, or its bit had drifted from its size); it is skipped, not
	// expanded and not counted, and the caller stops the run.
	NotResident int
	// Truncated is set when an Expand broke its contract and returned fewer
	// elements than it was handed: the PE keeps the stack it had, the node's
	// successors are lost, the caller stops the run.
	Truncated bool
}

// Merge folds r, the reduction of the PE range after e's, into e.
func (e *Expansion) Merge(r Expansion) {
	e.Expanded += r.Expanded
	e.Goals += r.Goals
	if r.Peak > e.Peak {
		e.Peak = r.Peak
	}
	if e.NotResident < 0 {
		e.NotResident = r.NotResident
	}
	e.Truncated = e.Truncated || r.Truncated
}

// ExpandScratch is one caller's reusable scratch for ExpandCycle: the nodes
// and PE indices gathered from one 64-PE word, and the size histogram of the
// PEs the last call expanded.  Concurrent callers each bring their own.
type ExpandScratch[S any] struct {
	nodes [64]S
	pes   [64]int
	// Held[s] counts the PEs the last call expanded that hold s nodes after
	// it, resident and ghost; the last bucket counts MaxBatch or more.
	Held [MaxBatch + 1]int32
}

// ExpandCycle runs len(res) lock-step node-expansion cycles over the PEs in
// [lo, hi) and books cycle j into res[j]: every PE whose has-work bit is set
// pops its next node in depth-first order, tests it for the goal, and pushes
// its successors as a deeper level, for as many cycles as it has work.  The
// caller asks for several cycles only when no load-balancing phase can fall
// between them, so a PE's cycles depend on its own stack alone and run back
// to back.  It works one 64-PE flag word at a time, in the three phases of
// the paper's machine:
//
//   - pop: every set bit of the word, snapshotted first so the set of PEs
//     that expand is fixed at the cycle boundary, pops into the scratch.
//     The loop body is a few loads and stores, so the cache misses on the
//     64 independent stack tops overlap instead of each waiting behind the
//     previous PE's Expand;
//   - expand and push: Goal and Expand for each gathered node, in PE order.
//     Expand is handed the PE's live window and appends the successors
//     where they will live; the kernel adopts the slice that comes back (the
//     same buffer, or the larger one append moved the stack to) and books
//     the new level — no successor scratch, no copy.  In a batch the PE then
//     runs its remaining cycles (goOn) while its stack top is in cache: no
//     gather, no record reload, no flag math between them;
//   - flags: the has-work and can-split bits of the expanded PEs are
//     accumulated in two registers from the sizes the pushes left and
//     stored once per word and call, not read-modified-written per node.
//     Each expanded PE's final size goes into sc.Held.
//
// The range must cover whole flag words — lo a multiple of 64, hi a
// multiple of 64 or P — which is also what lets concurrent calls on disjoint
// ranges store their words without synchronisation (simd's shards are cut
// that way).  PEs without work keep their bits.  A PE whose Expand breaks
// its contract stops there; len(res) must be 1 to MaxBatch.
func (a *Arena[S]) ExpandCycle(d Expander[S], lo, hi int, sc *ExpandScratch[S], res []Expansion) {
	for j := range res {
		res[j] = Expansion{NotResident: -1}
	}
	sc.Held = [MaxBatch + 1]int32{}
	first := &res[0]
	var goals int64 // the first cycle's, in a register
	var peak int
	var zero S
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		base := wi << 6
		w := a.work[wi]
		if w == 0 {
			continue
		}
		var work, split uint64 // the new bits of the PEs in w

		n := 0
		for rem := w; rem != 0; rem &= rem - 1 {
			pe := base + bits.TrailingZeros64(rem)
			p := &a.pes[pe]
			if p.size == 0 {
				if first.NotResident < 0 {
					first.NotResident = pe
				}
				w &^= 1 << uint(pe&63) // not expanded: its bits stay as they are
				continue
			}
			// popRaw, spelled out so the loop body stays free of calls.
			tail := p.head + p.size - 1
			sc.nodes[n], sc.pes[n] = p.buf[tail], pe
			n++
			p.buf[tail] = zero
			p.shrinkTop()
		}
		first.Expanded += int64(n)

		for i := 0; i < n; i++ {
			node, pe := sc.nodes[i], sc.pes[i]
			if d.Goal(node) {
				goals++
			}
			p := &a.pes[pe]
			end := p.room()
			out := d.Expand(node, p.buf[:end])
			if k := len(out) - end; k > 0 {
				// adopt, spelled out: one call per node, pushLevelLen's.
				if cap(out) != cap(p.buf) {
					clear(p.buf[p.head:cap(p.buf)])
				}
				p.buf = out[:cap(out)]
				p.pushLevelLen(a, pe, k)
				p.size += int32(k)
			} else if k < 0 {
				first.Truncated = true
			}
			sz := int(p.size + p.ghost)
			if sz > peak {
				peak = sz
			}
			if len(res) > 1 && len(out) >= end {
				sz = a.goOn(d, p, pe, res)
			}
			bit := uint64(1) << uint(pe&63)
			if sz >= 2 {
				work, split = work|bit, split|bit
			} else if sz == 1 {
				work |= bit
			}
			sc.Held[min(sz, MaxBatch)]++
		}

		a.work[wi] = a.work[wi]&^w | work
		a.split[wi] = a.split[wi]&^w | split
	}
	first.Goals, first.Peak = goals, peak
}

// goOn runs PE pe's cycles 1 to len(res)-1 of a batch, one pop, Goal,
// Expand and push each, booking cycle j into res[j], and returns its final
// size.  It stops early when the PE runs dry or its Expand breaks the
// contract, and books a PE whose resident window empties onto evicted
// levels as not resident in the cycle it could not pop in.  The first cycle
// is ExpandCycle's own, spelled out there so that a one-cycle call makes no
// call per node but Goal, Expand and pushLevelLen.
func (a *Arena[S]) goOn(d Expander[S], p *pe[S], pe int, res []Expansion) int {
	var zero S
	for j := 1; j < len(res); j++ {
		r := &res[j]
		if p.size == 0 {
			if p.ghost > 0 && r.NotResident < 0 {
				r.NotResident = pe // its next node is on disk
			}
			break
		}
		tail := p.head + p.size - 1
		node := p.buf[tail]
		p.buf[tail] = zero
		p.shrinkTop()
		r.Expanded++
		if d.Goal(node) {
			r.Goals++
		}
		end := p.room()
		out := d.Expand(node, p.buf[:end])
		if k := len(out) - end; k > 0 {
			p.adopt(a, pe, out, k)
		}
		if sz := int(p.size + p.ghost); sz > r.Peak {
			r.Peak = sz
		}
		if len(out) < end {
			r.Truncated = true
			break
		}
	}
	return int(p.size + p.ghost)
}

// room returns the end of the PE's live window, the length of the buffer
// Expand is handed.  When there is more dead space in front of the window
// than room behind it, it first slides the window to the front: otherwise a
// donor whose bottom keeps being taken would have append grow its buffer for
// ever.  It does so once the dead space is a quarter of the live size, so
// the removals pay for the copy.
func (p *pe[S]) room() int {
	end := int(p.head + p.size)
	if head := int(p.head); len(p.buf)-end < head && 4*head >= int(p.size) {
		p.slideFront()
		end -= head
	}
	return end
}

// adopt books the k successors Expand appended to the PE's window as its new
// top level.  out is what Expand returned: the PE's buffer, or the larger
// one append moved the stack to.
func (p *pe[S]) adopt(a *Arena[S], pe int, out []S, k int) {
	if cap(out) != cap(p.buf) {
		// append moved the stack: zero all it left (the appends that fit wrote past end).
		clear(p.buf[p.head:cap(p.buf)])
	}
	p.buf = out[:cap(out)]
	p.pushLevelLen(a, pe, k)
	p.size += int32(k)
}
