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
}

// ExpandScratch is one caller's reusable scratch for ExpandCycle: the nodes
// and PE indices gathered from one 64-PE word.  Concurrent callers each
// bring their own.
type ExpandScratch[S any] struct {
	nodes [64]S
	pes   [64]int
	// Truncated is set, and stays set, once an Expand broke its contract
	// and returned fewer elements than it was handed: the PE keeps the stack
	// it had, the node's successors are lost, the caller stops the run.  (A
	// fifth field in Expansion would take that struct out of registers.)
	Truncated bool
}

// ExpandCycle runs one lock-step node-expansion cycle over the PEs in
// [lo, hi): every PE whose has-work bit is set pops its next node in
// depth-first order, tests it for the goal, and pushes its successors as a
// deeper level.  It works one 64-PE flag word at a time, in the three phases
// of the paper's machine:
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
//     the new level — no successor scratch, no copy;
//   - flags: the has-work and can-split bits of the expanded PEs are
//     accumulated in two registers from the sizes the pushes left and
//     stored once per word, not read-modified-written four times per node.
//
// The range must cover whole flag words — lo a multiple of 64, hi a
// multiple of 64 or P — which is also what lets concurrent calls on disjoint
// ranges store their words without synchronisation (simd's shards are cut
// that way).  PEs without work keep their bits.
func (a *Arena[S]) ExpandCycle(d Expander[S], lo, hi int, sc *ExpandScratch[S]) Expansion {
	res := Expansion{NotResident: -1}
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
				if res.NotResident < 0 {
					res.NotResident = pe
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

		for i := 0; i < n; i++ {
			node, pe := sc.nodes[i], sc.pes[i]
			if d.Goal(node) {
				res.Goals++
			}
			p := &a.pes[pe]
			end := int(p.head + p.size)
			if head := int(p.head); len(p.buf)-end < head && 4*head >= int(p.size) {
				// More dead space in front of the window than room behind
				// it: reclaim it, or a donor whose bottom keeps being taken
				// would have append grow its buffer for ever — once it is a
				// quarter of the live size, so the removals pay for the copy.
				p.slideFront()
				end -= head
			}
			out := d.Expand(node, p.buf[:end])
			if k := len(out) - end; k > 0 {
				if cap(out) != cap(p.buf) {
					// append moved the stack: zero all it left (the appends that fit wrote past end).
					clear(p.buf[p.head:cap(p.buf)])
				}
				p.buf = out[:cap(out)]
				p.pushLevelLen(a, pe, k)
				p.size += int32(k)
			} else if k < 0 {
				sc.Truncated = true
			}
			sz := int(p.size + p.ghost)
			bit := uint64(1) << uint(pe&63)
			if sz >= 2 {
				work, split = work|bit, split|bit
			} else if sz == 1 {
				work |= bit
			}
			if sz > res.Peak {
				res.Peak = sz
			}
		}
		res.Expanded += int64(n)

		a.work[wi] = a.work[wi]&^w | work
		a.split[wi] = a.split[wi]&^w | split
	}
	return res
}
