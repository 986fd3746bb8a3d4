// Package wire serialises search nodes and DFS stacks into the byte
// messages a work transfer actually ships.  The paper's cost model takes
// message sizes as constant because "the stack is a rather compact
// representation of the search space" (Section 3.1); this package makes
// that compactness concrete: it provides binary codecs for each workload's
// node type, a framed stack encoding that preserves level structure, and
// helpers that convert a codec plus a link bandwidth into the per-node
// transfer cost used by the simulator's extended cost model.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"simdtree/internal/stack"
)

// bufPool recycles the scratch byte buffers of stack encoding.  Pooling a
// buffer never affects encoded bytes — every user appends onto a length-0
// slice — so this is safe in deterministic code; it exists because callers
// like checkpoint encoding frame one message per PE stack, P allocations
// per snapshot without reuse.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// GetBuf returns a pooled byte buffer of length 0.  Pass it back with
// PutBuf when done; the pointer indirection avoids an allocation per
// round-trip.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf resets the buffer to length 0 and returns it to the pool, so no
// stale message bytes can leak into a later user.
func PutBuf(b *[]byte) {
	if b == nil {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// Codec serialises one node type.
type Codec[S any] interface {
	// Name identifies the codec in reports.
	Name() string
	// AppendNode appends the encoding of n to buf and returns it.
	AppendNode(buf []byte, n S) []byte
	// DecodeNode parses one node from b, returning the node and the
	// remaining bytes.
	DecodeNode(b []byte) (S, []byte, error)
}

// ErrTruncated reports a message that ended mid-node.
var ErrTruncated = errors.New("wire: truncated message")

// EncodeStack frames a whole stack: a uvarint level count, then per level
// a uvarint node count followed by the encoded nodes, bottom level first.
// It is the byte-for-byte payload of one work transfer.  The canonical
// encoding has no empty levels: neither a Stack nor an arena window ever
// holds one, and the decoder rejects a zero node count.
func EncodeStack[S any](c Codec[S], s *stack.Stack[S]) []byte {
	return AppendStack(nil, c, s)
}

// AppendStack appends the EncodeStack framing of s to buf and returns the
// extended buffer — the allocation-free form for callers that reuse a
// scratch buffer (see GetBuf/PutBuf) across many stacks.
func AppendStack[S any](buf []byte, c Codec[S], s *stack.Stack[S]) []byte {
	depth := 0
	s.ForEachLevel(func(lv []S) {
		if len(lv) > 0 {
			depth++
		}
	})
	buf = binary.AppendUvarint(buf, uint64(depth))
	s.ForEachLevel(func(lv []S) {
		if len(lv) == 0 {
			return
		}
		buf = binary.AppendUvarint(buf, uint64(len(lv)))
		for _, n := range lv {
			buf = c.AppendNode(buf, n)
		}
	})
	return buf
}

// EncodeArena frames one PE's stack out of a structure-of-arrays arena
// with the exact EncodeStack framing; the bytes are identical to encoding
// the materialised Stack, without materialising it.
func EncodeArena[S any](c Codec[S], a *stack.Arena[S], pe int) []byte {
	return AppendArena(nil, c, a, pe)
}

// AppendArena appends the EncodeStack framing of arena PE pe to buf and
// returns the extended buffer.  An arena never holds empty levels, so the
// level count is its live depth.
func AppendArena[S any](buf []byte, c Codec[S], a *stack.Arena[S], pe int) []byte {
	buf = binary.AppendUvarint(buf, uint64(a.Depth(pe)))
	a.ForEachLevel(pe, func(lv []S) {
		buf = binary.AppendUvarint(buf, uint64(len(lv)))
		for _, n := range lv {
			buf = c.AppendNode(buf, n)
		}
	})
	return buf
}

// DecodeStack parses a stack encoded by EncodeStack.  Counts are
// validated against the remaining message length before any allocation,
// so a corrupt or hostile message cannot trigger huge allocations.
func DecodeStack[S any](c Codec[S], b []byte) (*stack.Stack[S], error) {
	levels, n := binary.Uvarint(b)
	if n <= 0 || levels > uint64(len(b)) {
		return nil, ErrTruncated
	}
	b = b[n:]
	out := stack.New[S]()
	for l := uint64(0); l < levels; l++ {
		count, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, ErrTruncated
		}
		b = b[n:]
		// Every encoded node occupies at least one byte, so a count
		// beyond the remaining length is corrupt; reject it before
		// allocating.  Stacks never hold empty levels, so a zero count
		// is non-canonical and rejected too — the format round-trips
		// byte-for-byte.
		if count == 0 || count > uint64(len(b)) {
			return nil, fmt.Errorf("wire: invalid level count %d: %w", count, ErrTruncated)
		}
		lv := make([]S, 0, count)
		for i := uint64(0); i < count; i++ {
			node, rest, err := c.DecodeNode(b)
			if err != nil {
				return nil, err
			}
			b = rest
			lv = append(lv, node)
		}
		out.PushLevel(lv)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after stack", len(b))
	}
	return out, nil
}

// NodeSize returns the encoded size of one node under the codec.
func NodeSize[S any](c Codec[S], n S) int {
	return len(c.AppendNode(nil, n))
}

// PerNodeTime converts a codec's node size into the virtual time one node
// adds to a work-transfer message on a link of the given bandwidth — the
// value to plug into the simulator's Costs.PerNodeTransfer for the
// message-size ablation.
func PerNodeTime[S any](c Codec[S], sample S, bytesPerSecond float64) time.Duration {
	if bytesPerSecond <= 0 {
		return 0
	}
	sz := float64(NodeSize(c, sample))
	return time.Duration(sz / bytesPerSecond * float64(time.Second))
}
