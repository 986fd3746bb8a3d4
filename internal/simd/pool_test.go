package simd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"simdtree/internal/synthetic"
)

// boomTree is a forest of leaves in which every negative node is a bomb: it
// panics, with a value that names it, the moment it is expanded.
type boomTree struct{}

func (boomTree) Root() int     { return 0 }
func (boomTree) Goal(int) bool { return false }
func (boomTree) Expand(n int, buf []int) []int {
	if n < 0 {
		panic(fmt.Sprintf("boom %d", -n))
	}
	return buf
}

// boomMachine builds a machine with a node on every PE, a bomb on every PE
// from firstBomb up.
func boomMachine(t *testing.T, p, workers, firstBomb int) *Machine[int] {
	t.Helper()
	sch, err := ParseScheme[int]("GP-S0.00")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine[int](boomTree{}, sch, Options{P: p, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < p; pe++ {
		node := pe + 1
		if pe >= firstBomb {
			node = -node
		}
		m.Arena().Clear(pe)
		m.Arena().PushLevel(pe, []int{node})
	}
	return m
}

// settled waits for the goroutine count to come back to what it was.
func settled(t *testing.T, before int, when string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the run", when, runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDomainPanicReachesCaller is the regression test for the pool's panic
// path: a domain that panics inside Expand used to panic on a pool
// goroutine, where no recover of the caller's could see it, and take the
// process down.  At every worker count the caller of RunContext must be
// able to recover it, must get the value a sequential run stops at (the
// lowest panicking PE's), and must be left with no goroutine of the run's.
func TestDomainPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // the pool is not started on one P
	for _, workers := range []int{1, 4} {
		// P is large enough that the first cycle is shared out to the pool.
		p := 4 * poolShardMin * max(workers, 2)
		// Bombs everywhere (shard 0, the caller's, panics too), and only in
		// the upper half (only pool goroutines panic).
		for _, firstBomb := range []int{0, p / 2} {
			t.Run(fmt.Sprintf("workers=%d/bombs-from=%d", workers, firstBomb), func(t *testing.T) {
				before := runtime.NumGoroutine()
				m := boomMachine(t, p, workers, firstBomb)
				var got any
				func() {
					defer func() { got = recover() }()
					_, err := m.RunContext(context.Background())
					t.Errorf("RunContext returned (%v) over a panicking domain", err)
				}()
				if want := fmt.Sprintf("boom %d", firstBomb+1); got != want {
					t.Errorf("recovered %v, want %q", got, want)
				}
				settled(t, before, "after the panic")
			})
		}
	}
}

// TestNoGoroutineOutlivesRun: the pool is down again after a normal return
// and after a cancellation, as after a panic.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	before := runtime.NumGoroutine()
	tree := synthetic.New(40000, 5)
	run := func(ctx context.Context) error {
		sch, err := ParseScheme[synthetic.Node]("GP-DK")
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunContext[synthetic.Node](ctx, tree, sch, Options{P: 4096, Workers: 4})
		return err
	}
	if err := run(context.Background()); err != nil {
		t.Fatal(err)
	}
	settled(t, before, "after a normal return")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	settled(t, before, "after a cancelled run")
}

// shrinkingTree breaks Expand's contract on its deep nodes: it returns less
// than the buffer it was handed.
type shrinkingTree struct{ chainTree }

func (s shrinkingTree) Expand(n chainNode, buf []chainNode) []chainNode {
	if n.depth == 5 && len(buf) > 0 {
		return buf[:len(buf)-1]
	}
	return append(s.chainTree.Expand(n, buf), chainNode{depth: n.depth + 1})
}

// TestTruncatingExpandStopsRun: an Expand that hands back fewer elements
// than it was given would cut live nodes off a PE's stack.  The run must
// stop at that cycle's boundary with ErrExpandTruncated, not go on to a
// wrong answer.
func TestTruncatingExpandStopsRun(t *testing.T) {
	sch, err := ParseScheme[chainNode]("GP-S0.90")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run[chainNode](shrinkingTree{chainTree{length: 50}}, sch, Options{P: 8})
	if !errors.Is(err, ErrExpandTruncated) {
		t.Fatalf("run returned %v, want ErrExpandTruncated", err)
	}
	if st.Cycles != 6 {
		t.Errorf("stopped after %d cycles, want 6 (the first depth-5 node is popped in the sixth)", st.Cycles)
	}
}
