// Package wire serialises search nodes and DFS stacks into the byte
// messages a work transfer actually ships.  The paper's cost model takes
// message sizes as constant because "the stack is a rather compact
// representation of the search space" (Section 3.1); this package makes
// that compactness concrete: it provides binary codecs for each workload's
// node type, a framed stack encoding that preserves level structure, and
// helpers that convert a codec plus a link bandwidth into the per-node
// transfer cost used by the simulator's extended cost model.
//
// It is also the one frame codec under the tree's three binary formats
// (SCKP checkpoints, SSTL steal frames, SSPL spill segments), each of
// which is a field list over it (frame.go; DESIGN.md, "Frame discipline"):
//
//	magic | version byte | fields | CRC32-IEEE (little-endian) over everything before it
//
// The frame API:
//
//   - NewFrame starts a Writer; Byte, Uvarint, Varint, Blob and Str append
//     fields; Seal appends the CRC.
//   - Open checks the envelope and returns a Reader; Uvarint, Varint, Count,
//     Int, Len, Blob, Str and Flags read fields strictly — every value has
//     one byte form — and latch the first error; Corruptf latches a format's
//     own complaint; Close returns the latched error, or ErrCorrupt for
//     trailing bytes.
//   - ErrBadMagic, ErrVersion, ErrChecksum, ErrTruncated and ErrCorrupt
//     classify every refusal.
//   - AppendLevel and ReadLevels are the level framing of a stack, behind
//     AppendStack, EncodeArena, DecodeStack and the spill segment.
package wire

import (
	"encoding/binary"
	"time"

	"simdtree/internal/stack"
)

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

// EncodeStack frames a whole stack as a level list: a uvarint level count,
// then per level a uvarint node count followed by the encoded nodes, bottom
// level first.  It is the byte-for-byte payload of one work transfer.  The
// canonical encoding has no empty levels: neither a Stack nor an arena
// window ever holds one, and the decoder rejects a zero node count.
func EncodeStack[S any](c Codec[S], s *stack.Stack[S]) []byte {
	return AppendStack(nil, c, s)
}

// AppendStack appends the EncodeStack framing of s to buf and returns the
// extended buffer — the allocation-free form for callers that reuse a
// scratch buffer across many stacks.
func AppendStack[S any](buf []byte, c Codec[S], s *stack.Stack[S]) []byte {
	buf = binary.AppendUvarint(buf, uint64(s.Depth()))
	s.ForEachLevel(func(lv []S) { buf = AppendLevel(buf, c, lv) })
	return buf
}

// EncodeArena frames one PE's stack out of a structure-of-arrays arena
// with the exact EncodeStack framing; the bytes are identical to encoding
// the materialised Stack, without materialising it.
func EncodeArena[S any](c Codec[S], a *stack.Arena[S], pe int) []byte {
	buf := binary.AppendUvarint(nil, uint64(a.Depth(pe)))
	a.ForEachLevel(pe, func(lv []S) { buf = AppendLevel(buf, c, lv) })
	return buf
}

// DecodeStack parses a stack encoded by EncodeStack, strictly: the one
// byte form EncodeStack produces for a stack is the only one accepted.
func DecodeStack[S any](c Codec[S], b []byte) (*stack.Stack[S], error) {
	r := Reader{b: b}
	var shallow [8]int // spares the usual stack a heap-allocated count list
	nodes, counts := ReadLevels(c, &r, nil, shallow[:0])
	if err := r.Close(); err != nil {
		return nil, err
	}
	out := stack.New[S]()
	for _, n := range counts {
		out.PushLevel(nodes[:n:n])
		nodes = nodes[n:]
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
