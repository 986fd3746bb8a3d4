// Package wire serialises search nodes and DFS stacks into the byte
// messages a work transfer actually ships.  The paper's cost model takes
// message sizes as constant because "the stack is a rather compact
// representation of the search space" (Section 3.1); this package makes
// that compactness concrete: it provides binary codecs for each workload's
// node type, a framed stack encoding that preserves level structure (out
// of a stack.Arena PE and back into one: the arena is the only typed form
// a stack has), and helpers that convert a codec plus a link bandwidth into
// the per-node transfer cost used by the simulator's extended cost model.
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
//     EncodeArena, ArenaDecoder and the spill segment.
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

// EncodeArena appends the level-list framing of PE pe's stack to buf and
// returns the extended buffer: a uvarint level count, then per level a
// uvarint node count followed by the encoded nodes, bottom level first.  It
// is the byte-for-byte payload of one work transfer, and of one PE in a
// checkpoint; callers framing many PEs reuse one buffer.  The canonical
// encoding has no empty levels: an arena window never holds one, and the
// decoder rejects a zero node count.  The PE must be fully resident.
func EncodeArena[S any](buf []byte, c Codec[S], a *stack.Arena[S], pe int) []byte {
	buf = binary.AppendUvarint(buf, uint64(a.Depth(pe)))
	a.ForEachLevel(pe, func(lv []S) { buf = AppendLevel(buf, c, lv) })
	return buf
}

// ArenaDecoder decodes EncodeArena payloads straight into PE windows.  Its
// scratch is reused across calls, so restoring a P-stack checkpoint costs
// what the arena itself allocates and nothing per payload.
type ArenaDecoder[S any] struct {
	Codec  Codec[S]
	nodes  []S
	counts []int
}

// Decode parses a payload strictly — the one byte form EncodeArena produces
// for a stack is the only one accepted — and pushes its levels above PE
// pe's top, returning the number of nodes.  A refused payload leaves the
// arena untouched: nothing is appended until the whole payload has parsed.
func (d *ArenaDecoder[S]) Decode(b []byte, a *stack.Arena[S], pe int) (int, error) {
	r := Reader{b: b}
	d.nodes, d.counts = ReadLevels(d.Codec, &r, d.nodes[:0], d.counts[:0])
	if err := r.Close(); err != nil {
		return 0, err
	}
	a.AppendLevels(pe, d.nodes, d.counts)
	return len(d.nodes), nil
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
