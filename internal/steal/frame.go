// Package steal implements distributed load balancing across simdserve
// nodes: one job runs as coordinated shards — full-size machines that each
// hold a contiguous PE range — stepped in lock-step by a driver on the
// job's own node that owns the global schedule (trigger evaluation, matching, the
// GP pointer, the stats/trace ledger).  Because every scheduling decision
// of the engine's run loop is a function of globally reduced scalars, the
// distributed schedule is byte-identical to the single-machine one; split
// stack halves cross nodes as Frames, the work-transfer message of the
// paper's model made literal.
package steal

import (
	"errors"
	"fmt"

	"simdtree/internal/wire"
)

// Magic identifies a steal frame.
const Magic = "SSTL"

// Version is the current frame format version; any layout change must
// increment it.
const Version = 1

// ContentType is the media type donation frames travel under.
const ContentType = "application/vnd.simdtree.steal"

// MaxFrameSize bounds a frame a node will accept.  A donation carries one
// split stack half — a few levels — so this is generous.
const MaxFrameSize = 8 << 20

// The decode errors are the wire frame's.
var (
	ErrBadMagic  = wire.ErrBadMagic
	ErrVersion   = wire.ErrVersion
	ErrChecksum  = wire.ErrChecksum
	ErrTruncated = wire.ErrTruncated
	ErrCorrupt   = wire.ErrCorrupt
)

// Frame is one donated stack half in flight between nodes, carrying
// everything the receiver needs to install it deterministically: the job
// it belongs to, the driver-minted donation sequence number (total
// order over the run's donations, so replays are byte-identical), the
// cycle boundary it was split at, the global donor and receiver PE
// indices, and the wire-encoded stack levels.
//
// Field list of the wire frame (strings and blobs uvarint-length-prefixed,
// integers canonical uvarints):
//
//	key | codec | donation | cycle | from | to |
//	flags byte | stack blob
//
// No flag is defined: the flags byte is always 0, and a frame with any bit
// set is refused as corrupt.
type Frame struct {
	// Key is the cache key of the job the donation belongs to.
	Key string
	// Codec names the wire codec of the stack payload; the receiver
	// refuses a mismatch.
	Codec string
	// Donation is the driver-assigned sequence number.
	Donation uint64
	// Cycle is the expansion-cycle boundary the donation was split at.
	Cycle int
	// From and To are global PE indices (donor and receiver).
	From, To int
	// Stack is the wire.EncodeArena payload of the donated levels; it is
	// never empty (empty donations are not shipped).
	Stack []byte
}

// EncodeFrame serialises the frame canonically.
func EncodeFrame(f *Frame) ([]byte, error) {
	if f == nil {
		return nil, errors.New("steal: nil frame")
	}
	if len(f.Stack) == 0 {
		return nil, errors.New("steal: frame has an empty stack payload")
	}
	if f.Cycle < 0 || f.From < 0 || f.To < 0 {
		return nil, fmt.Errorf("steal: negative frame field (cycle %d, from %d, to %d)", f.Cycle, f.From, f.To)
	}
	buf := make([]byte, 0, len(Magic)+1+len(f.Key)+len(f.Codec)+len(f.Stack)+64)
	w := wire.NewFrame(buf, Magic, Version)
	w.Str(f.Key)
	w.Str(f.Codec)
	w.Uvarint(f.Donation)
	w.Uvarint(uint64(f.Cycle))
	w.Uvarint(uint64(f.From))
	w.Uvarint(uint64(f.To))
	w.Byte(0) // flags: none defined
	w.Blob(f.Stack)
	return w.Seal(), nil
}

// DecodeFrame parses a frame produced by EncodeFrame.  The format is
// strict and canonical: bad magic, version, CRC, truncation, non-minimal
// varints, unknown flags, empty payloads and trailing bytes are all
// rejected, and re-encoding a decoded frame reproduces the input bytes
// exactly.
func DecodeFrame(b []byte) (*Frame, error) {
	if len(b) > MaxFrameSize {
		return nil, fmt.Errorf("steal: %w: %d bytes exceeds the %d-byte frame bound", ErrCorrupt, len(b), MaxFrameSize)
	}
	r := wire.Open(b, Magic, Version)
	f := &Frame{Key: r.Str(), Codec: r.Str(), Donation: r.Uvarint(), Cycle: r.Count(), From: r.Count(), To: r.Count()}
	r.Flags(0)
	if f.Stack = r.Blob(); f.Stack == nil {
		r.Corruptf("empty stack payload")
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("steal: %w", err)
	}
	return f, nil
}
