package steal

import (
	"context"
	"errors"
	"strings"
	"testing"

	"simdtree/internal/checkpoint"
	"simdtree/internal/puzzle"
	"simdtree/internal/search"
	"simdtree/internal/simd"
	"simdtree/internal/wire"
)

// mergeFails is a shard whose merge call is lost.
type mergeFails struct{ Shard }

func (mergeFails) Merge(context.Context, [][]byte) ([]byte, error) {
	return nil, errors.New("connection reset")
}

// TestAssembleNamesMergeFailure: found by server's TestShardFaultSweep —
// every other shard call's failure came back as "steal: shard N <op>: ...",
// a failed merge came back bare, so the operator could not tell which
// node or which step of the checkpoint assembly had failed.
func TestAssembleNamesMergeFailure(t *testing.T) {
	const label, p = "GP-DK", 8
	inst := puzzle.Scramble(5, 12)
	bound, _ := search.FinalIterationBound(puzzle.NewDomain(inst))
	newDomain := func() search.Domain[puzzle.Node] { return search.NewBounded(puzzle.NewDomain(inst), bound) }
	sch, err := simd.ParseScheme[puzzle.Node](label)
	if err != nil {
		t.Fatal(err)
	}
	m, err := simd.NewMachine[puzzle.Node](newDomain(), sch, simd.Options{P: p})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := checkpoint.Encode[puzzle.Node](wire.PuzzleCodec{}, checkpoint.Meta{Scheme: label}, snap)
	if err != nil {
		t.Fatal(err)
	}
	meta, raw, err := checkpoint.DecodeRaw(b)
	if err != nil {
		t.Fatal(err)
	}
	shards := buildShards[puzzle.Node](t, wire.PuzzleCodec{}, label, p, 2, raw, newDomain)
	shards[0] = mergeFails{shards[0]}
	parts, err := simd.ParseSchemeParts(label)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(Config{Key: "k", Meta: meta, Scheme: parts, P: p}, raw, shards)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Assemble(context.Background()); err == nil || !strings.Contains(err.Error(), "shard 0 merge") {
		t.Errorf("Assemble over a failing merge: %v, want an error naming shard 0 and merge", err)
	}
}
