// Benchmarks regenerating every table and figure of the paper at reduced
// (tiny) scale, so `go test -bench=.` exercises the complete experiment
// pipeline.  Full-scale reproductions run via `go run ./cmd/experiments
// -scale full <experiment>`; see EXPERIMENTS.md for measured results.
package simdtree

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"simdtree/internal/experiments"
	"simdtree/internal/match"
	"simdtree/internal/metrics"
	"simdtree/internal/puzzle"
	"simdtree/internal/scan"
	"simdtree/internal/search"
	"simdtree/internal/server"
	"simdtree/internal/simd"
	"simdtree/internal/stack"
	"simdtree/internal/synthetic"
)

// tinySuite builds the reduced-scale synthetic suite shared by the table
// benchmarks.
func tinySuite() (*experiments.Suite[synthetic.Node], experiments.Scale) {
	sc := experiments.TinyScale
	return &experiments.Suite[synthetic.Node]{
		Workloads: experiments.SyntheticWorkloads(sc.Tiers),
		P:         sc.P,
		Workers:   sc.Workers,
	}, sc
}

var benchThresholds = []float64{0.50, 0.70, 0.90}

func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	s, _ := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table2(benchThresholds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	b.ReportAllocs()
	s, _ := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	b.ReportAllocs()
	s, _ := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	b.ReportAllocs()
	s, _ := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table5(s.Workloads[1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	b.ReportAllocs()
	s, _ := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig1("GP-DK", s.Workloads[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	b.ReportAllocs()
	s, _ := tinySuite()
	for i := 0; i < b.N; i++ {
		t2, err := s.Table2(benchThresholds)
		if err != nil {
			b.Fatal(err)
		}
		experiments.Fig3(t2)
	}
}

func BenchmarkFig4(b *testing.B) {
	b.ReportAllocs()
	_, sc := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.IsoGrid("fig4", experiments.Fig4Labels(), sc.GridPs, sc.GridWs, sc.Workers,
			[]float64{0.5, 0.65}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	b.ReportAllocs()
	_, sc := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.IsoGrid("fig7", experiments.Fig7Labels(), sc.GridPs, sc.GridWs, sc.Workers,
			[]float64{0.5, 0.65}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	b.ReportAllocs()
	s, _ := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig8(s.Workloads[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSplitter(b *testing.B) {
	b.ReportAllocs()
	_, sc := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSplitters(sc.Tiers[0], sc.P, sc.Workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationInit(b *testing.B) {
	b.ReportAllocs()
	_, sc := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationInit(sc.Tiers[0], sc.P, sc.Workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTransfers(b *testing.B) {
	b.ReportAllocs()
	_, sc := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTransfers(sc.Tiers[0], sc.P, sc.Workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTopology(b *testing.B) {
	b.ReportAllocs()
	_, sc := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTopology(sc.Tiers[0], sc.P, sc.Workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationMessageSize(b *testing.B) {
	b.ReportAllocs()
	_, sc := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMessageSize(sc.Tiers[0], sc.P, sc.Workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDKGamma(b *testing.B) {
	b.ReportAllocs()
	_, sc := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDKGamma(sc.Tiers[0], sc.P, sc.Workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHeuristic(b *testing.B) {
	b.ReportAllocs()
	_, sc := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationHeuristic(24, sc.P, sc.Workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnomalies(b *testing.B) {
	b.ReportAllocs()
	_, sc := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Anomalies(16, []uint64{1}, []int{16, 64}, sc.Workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselines(b *testing.B) {
	b.ReportAllocs()
	_, sc := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BaselineComparison(sc.Tiers[0], sc.P, sc.Workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMIMDComparison(b *testing.B) {
	b.ReportAllocs()
	_, sc := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MIMDComparison(sc.Tiers[0], sc.P, sc.Workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVariance(b *testing.B) {
	b.ReportAllocs()
	_, sc := tinySuite()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Variance(sc.Tiers[0], sc.P, sc.Workers, 3,
			[]string{"GP-DK", "nGP-S0.90"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialIDAStar measures the serial 15-puzzle searcher that
// provides the ground-truth problem sizes.
func BenchmarkSerialIDAStar(b *testing.B) {
	b.ReportAllocs()
	dom := puzzle.NewDomain(puzzle.Scramble(3, 26))
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		r := search.IDAStar[puzzle.Node](dom, 0)
		total += r.Expanded
	}
	b.ReportMetric(float64(total)/float64(b.N), "nodes/op")
}

// BenchmarkPuzzleExpand measures raw successor generation.
func BenchmarkPuzzleExpand(b *testing.B) {
	b.ReportAllocs()
	dom := puzzle.NewDomain(puzzle.Scramble(3, 40))
	node := dom.Root()
	buf := make([]puzzle.Node, 0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = dom.Expand(node, buf[:0])
	}
	_ = buf
}

// BenchmarkFlagFill measures the per-cycle flag maintenance of the
// structure-of-arrays core at CM-2 scale (P=8192): branch-free bitset
// writes, the word-popcount reduction and the derived idle flags.  Zero
// allocs/op is part of the contract, and the benchmark fails if a fill
// allocates.
func BenchmarkFlagFill(b *testing.B) {
	b.ReportAllocs()
	const p = 8192
	busy := scan.NewBits(p)
	idle := scan.NewBits(p)
	fill := func() {
		for pe := 0; pe < p; pe++ {
			busy.SetTo(pe, pe&3 == 0)
		}
		scan.ComplementInto(idle, busy, p)
		if busy.CountBits()+idle.CountBits() != p {
			b.Fatal("flag fill lost bits")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(20, fill); allocs != 0 {
		b.Fatalf("%v allocs per fill, want 0", allocs)
	}
}

// BenchmarkMatchBits measures the setup step of a load-balancing phase at
// lb-storm scale: 12% of the PEs idle, the rest busy, the idle set and (for
// GP) the global pointer rotating from phase to phase.  ns/pair is the cost
// of a phase per pair it emits, the unit its O(pairs + P/64) bound is in;
// steady state must not allocate, and the benchmark fails if it does.
func BenchmarkMatchBits(b *testing.B) {
	const p, phases = 65536, 16
	// phases flag sets, every eighth PE idle (then every 200th busy one,
	// for 12% in all) at a different offset, so consecutive phases read
	// different words and match different PEs.
	busy, idle := make([]scan.Bits, phases), make([]scan.Bits, phases)
	for ph := range busy {
		busy[ph], idle[ph] = scan.NewBits(p), scan.NewBits(p)
		for pe := 0; pe < p; pe++ {
			isIdle := (pe+ph)%8 == 0 || (pe+7*ph)%200 == 3
			idle[ph].SetTo(pe, isIdle)
			busy[ph].SetTo(pe, !isIdle)
		}
	}
	for _, m := range []match.BitMatcher{&match.NGP{}, match.NewGP()} {
		b.Run(m.Name()+fmt.Sprintf("/P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			pairs, ph := 0, 0
			phase := func() {
				pairs += len(m.MatchBits(busy[ph], idle[ph], p))
				ph = (ph + 1) % phases
			}
			for i := 0; i < phases; i++ { // grow the scratch to the largest round
				phase()
			}
			pairs = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				phase()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
			if allocs := testing.AllocsPerRun(phases, phase); allocs != 0 {
				b.Fatalf("%v allocs per phase in steady state, want 0", allocs)
			}
		})
	}
}

// BenchmarkArenaTransfer measures a load-balancing transfer in the
// structure-of-arrays core.  half-stack: a split as range copies between
// two PEs, the deferred bit re-sync, and the receiver drain.  bottom-node:
// the engine's default transfer at lb-storm scale (P=65536), one op a
// 64-pair block of random PEs — what Context.TransferAll hands the splitter
// — so the donors' and the receivers' records, the donors' stack bottoms
// and the receivers' tops are cold the way a matching round finds them.
// Steady state must not allocate, and the benchmark fails if it does.
func BenchmarkArenaTransfer(b *testing.B) {
	b.Run("half-stack/P=2", func(b *testing.B) {
		b.ReportAllocs()
		a := stack.NewArena[int](2)
		buf := make([]int, 4)
		for l := 0; l < 16; l++ {
			for j := range buf {
				buf[j] = l*4 + j
			}
			a.PushLevel(0, buf)
		}
		sp := stack.HalfStack[int]{}
		pair, moved := []scan.Pair{{From: 0, To: 1}}, []int{0}
		transfer := func() {
			if !a.Splittable(pair[0].From) {
				pair[0].From, pair[0].To = pair[0].To, pair[0].From
			}
			sp.SplitBlock(a, pair, moved, nil)
			a.SyncBits(0)
			a.SyncBits(1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			transfer()
		}
		b.StopTimer()
		if allocs := testing.AllocsPerRun(20, transfer); allocs != 0 {
			b.Fatalf("%v allocs per transfer in steady state, want 0", allocs)
		}
	})
	b.Run("bottom-node/P=65536", func(b *testing.B) {
		b.ReportAllocs()
		const p, block = 65536, 64
		a := stack.NewArena[synthetic.Node](p)
		for pe := 0; pe < p; pe++ {
			for l := 0; l < 6; l++ { // six levels of two: the donor survives six donations
				a.PushLevel(pe, []synthetic.Node{{Budget: int64(l)}, {Budget: int64(pe)}})
			}
		}
		// Donors in one random order, receivers in the same order half a
		// machine on: a block's donors and receivers are distinct PEs, as a
		// matching round's are, and over P/64 ops every PE donates once and
		// receives once, so no stack drains or grows.
		rng := rand.New(rand.NewSource(1))
		order := rng.Perm(p)
		pairs := make([]scan.Pair, p)
		for i := range pairs {
			pairs[i] = scan.Pair{From: order[i], To: order[(i+p/2)%p]}
		}
		sp := stack.BottomNode[synthetic.Node]{}
		moved := make([]int, block)
		var nodes []synthetic.Node
		transfer := func(i int) {
			blk := pairs[i%(p/block)*block:][:block]
			nodes = sp.SplitBlock(a, blk, moved, nodes)
			for _, pr := range blk {
				a.SyncBits(pr.From)
				a.SyncBits(pr.To)
			}
		}
		// Grow the buffers and level tables to their final size: a round
		// takes a node off every bottom level and adds a one-node level on
		// top, so after twelve every stack is twelve levels of one.
		for i := 0; i < 12*p/block; i++ {
			transfer(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			transfer(i)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/block, "ns/pair")
		op := b.N
		if allocs := testing.AllocsPerRun(20, func() { transfer(op); op++ }); allocs != 0 {
			b.Fatalf("%v allocs per transfer in steady state, want 0", allocs)
		}
	})
}

// BenchmarkArenaFirstReceive measures what BenchmarkArenaTransfer warms up
// past: the first node a PE ever receives, at lb-storm scale.  One op is a
// fresh arena in which every one of P PEs receives one node, in 64-pair
// bottom-node blocks, from 64 donors beside them (built outside the timer).
// A first receive lands in the PE's home window, so an op allocates a chunk
// per flag word; the benchmark fails above P/32 allocations an op, which a
// buffer per PE exceeds thirty-fold.
func BenchmarkArenaFirstReceive(b *testing.B) {
	const p, block = 65536, 64
	b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
		b.ReportAllocs()
		sp := stack.BottomNode[synthetic.Node]{}
		// A donor's one level: a node for every block, and one to stay splittable.
		stock := make([]synthetic.Node, p/block+1)
		pairs := make([]scan.Pair, block)
		moved := make([]int, block)
		var nodes []synthetic.Node
		var ms runtime.MemStats
		var mallocs uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			a := stack.NewArena[synthetic.Node](p + block)
			for d := 0; d < block; d++ {
				a.AppendLevels(p+d, stock, []int{len(stock)})
			}
			runtime.ReadMemStats(&ms)
			mallocs -= ms.Mallocs
			b.StartTimer()
			for base := 0; base < p; base += block {
				for k := range pairs {
					pairs[k] = scan.Pair{From: p + k, To: base + k}
				}
				nodes = sp.SplitBlock(a, pairs, moved, nodes)
				for _, pr := range pairs {
					a.SyncBits(pr.To)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs
			if a.Size(0) != 1 || a.Size(p-1) != 1 || a.Size(p) != 1 {
				b.Fatalf("PEs 0 and %d hold %d and %d nodes, donor %d %d; want one each", p-1, a.Size(0), a.Size(p-1), p, a.Size(p))
			}
			b.StartTimer()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/p, "ns/pair")
		if perOp := float64(mallocs) / float64(b.N); perOp > p/32 {
			b.Fatalf("%.0f allocations an op, want at most P/32 = %d", perOp, p/32)
		}
	})
}

// regrowTree is an endless steady-state workload for the expansion kernel:
// the root re-pushes itself under a complete binary subtree of the given
// depth, so a PE's stack never drains and never outgrows depth+1 levels.
// Nodes are their own depth.
type regrowTree struct{ depth int }

func (regrowTree) Goal(int) bool { return false }

func (r regrowTree) Expand(d int, buf []int) []int {
	switch {
	case d == 0:
		return append(buf, 0, 1)
	case d < r.depth:
		return append(buf, d+1, d+1)
	}
	return buf
}

// BenchmarkExpandKernel measures the word-at-a-time expansion kernel
// (stack.Arena.ExpandCycle) with every PE busy, at a machine that fits the
// host's L2, at CM-2 scale, where a cycle's sweep over the per-PE stacks
// does not, and at lb-storm's P=65536.  One op is one call: one cycle on the
// P=… rows, four cycles back to back on the P=…,k=4 rows, which is what a
// search phase the stack sizes prove trigger-free runs.  The steady state
// must not allocate, and the benchmark fails if it does.
func BenchmarkExpandKernel(b *testing.B) {
	for _, k := range []int{1, 4} {
		for _, p := range []int{256, 8192, 65536} {
			name := fmt.Sprintf("P=%d", p)
			if k > 1 {
				name += fmt.Sprintf(",k=%d", k)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				tree := regrowTree{depth: 12}
				a := stack.NewArena[int](p)
				for pe := 0; pe < p; pe++ {
					a.PushLevel(pe, []int{0})
				}
				sc := new(stack.ExpandScratch[int])
				res := make([]stack.Expansion, k)
				cycle := func() {
					if a.ExpandCycle(tree, 0, p, sc, res); res[k-1].Expanded != int64(p) {
						b.Fatalf("expanded %d of %d PEs in the last cycle", res[k-1].Expanded, p)
					}
				}
				for i := 0; i < 64; i++ { // grow every buffer to its final size
					cycle()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cycle()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p*k), "ns/node")
				if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
					b.Fatalf("%v allocs per call in steady state, want 0", allocs)
				}
			})
		}
	}
}

// BenchmarkArenaHeld measures stack.Arena.Held, the stack-size histogram
// the schedule reads at a cycle boundary that could start a batch, at the
// three machine sizes of BenchmarkExpandKernel.  Eight PEs in nine are busy,
// holding 1 to 24 nodes in one or more levels, so every bucket is hit and
// the idle PEs are spread over the flag words.  One op is one call; ns/PE is
// per busy PE.  The benchmark fails if a call allocates.
func BenchmarkArenaHeld(b *testing.B) {
	for _, p := range []int{256, 8192, 65536} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(int64(p)))
			a := stack.NewArena[int](p)
			busy := 0
			for pe := 0; pe < p; pe++ {
				if pe%9 == 0 {
					continue
				}
				busy++
				for left := 1 + rng.Intn(24); left > 0; {
					n := 1 + rng.Intn(left)
					a.PushLevel(pe, make([]int, n))
					left -= n
				}
			}
			var h [stack.MaxBatch + 1]int32
			held := func() {
				if a.Held(&h); h[0] != int32(p-busy) {
					b.Fatalf("Held counts %d idle PEs, the arena has %d", h[0], p-busy)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				held()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(busy), "ns/PE")
			if allocs := testing.AllocsPerRun(20, held); allocs != 0 {
				b.Fatalf("%v allocs per call, want 0", allocs)
			}
		})
	}
}

// cacheHitAllocs is BenchmarkCacheHit's allocation ceiling: the count an
// op makes once a repeated body is admitted from the frontend's memo, its
// document appended from its result's template, its job born terminal
// without a run and handed to the frontend as itself, with no handle
// around it (30), plus 10 %.
const cacheHitAllocs = 33

// BenchmarkCacheHit is one ?wait=1 submission of a cached spec through the
// node's handler, its frontend, from request decoding to the response bytes:
// the request path that is nearly all of a cache hit's latency.  The spec
// is simdmark's service job; its one engine run happens before the timer.
// The benchmark fails above cacheHitAllocs allocations an op.
func BenchmarkCacheHit(b *testing.B) {
	srv, err := server.New(server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			b.Error(err)
		}
	}()
	h := srv.Handler()
	const spec = `{"domain":"synthetic","scheme":"GP-S0.90","p":64,"synthetic":{"w":30000,"seed":1}}`
	var rec *httptest.ResponseRecorder
	serve := func() {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", strings.NewReader(spec)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve()
	if serve(); !bytes.Contains(rec.Body.Bytes(), []byte(`"cache_hit": true`)) {
		b.Fatalf("second submission was not a cache hit:\n%s", rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, serve); allocs > cacheHitAllocs {
		b.Fatalf("%v allocs per cache hit, want at most %d", allocs, cacheHitAllocs)
	}
}

// BenchmarkJobRecord's job history, and its ceilings on the live heap one
// history entry keeps, B/entry, row by row: each the value measured at
// -benchtime 100x (a run 738, a hit 610, a long job 739, a spooled one
// 16 947), plus 25 %.  The long row's ceiling is also within twice the
// run row's measure, the point of freezing a log to its last tick.
const (
	jobRecordHistory = 256
	jobRecordRun     = 923
	jobRecordHit     = 763
	jobRecordLong    = 924
	jobRecordSpooled = 21184

	// spooledCheckpoints is the checkpoint events of BenchmarkJobRecord's
	// spooled row: a 1 M-cycle job at the spool's default cadence.
	spooledCheckpoints = 1000
)

// BenchmarkJobRecord serves one job an op through a node with a full job
// history and a one-entry cache, and reports the live heap the node then
// holds per history entry, B/entry: the node's memory is its history
// times this plus its cache, however many jobs it has served.  At least
// twice the history is served, so entries have been evicted and every
// finished job has dropped what only its run needed.  The rows:
//
//   - run: simdmark's service job (unique seeds, one engine run each);
//   - hit: the same spec every time, so every entry is answered from the
//     cache;
//   - long: a job that emits at least longJobTicks progress ticks, whose
//     frozen log keeps only the last one, so its entry costs what a run's
//     does;
//   - spooled: a job on a node with a spool that reports
//     spooledCheckpoints persisted checkpoints, each of which its frozen
//     log keeps as a 16-byte mark.
//
// Each row fails above its ceiling.
func BenchmarkJobRecord(b *testing.B) {
	const longJobTicks = 2048
	service := func(seed int) server.JobSpec {
		return server.JobSpec{Domain: "synthetic", Scheme: "GP-S0.90", P: 64, Synthetic: &server.SyntheticSpec{W: 30000, Seed: uint64(1 + seed)}}
	}
	// spooled reports spooledCheckpoints persisted checkpoints, one every
	// 1 000 cycles, through the node's own sink: the log of a long job on a
	// node with a spool, without the engine run and the fsyncs behind it.
	spooled := func(_ context.Context, spec server.JobSpec, _ simd.Options, env server.RunEnv) (metrics.Stats, error) {
		for c := 1; c <= spooledCheckpoints; c++ {
			env.Checkpointed(1000 * c)
		}
		return metrics.Stats{P: spec.P, W: 1000 * spooledCheckpoints * int64(spec.P), Cycles: 1000 * spooledCheckpoints}, nil
	}
	for _, row := range []struct {
		name     string
		every    int // Config.ProgressEvery
		spec     func(i int) server.JobSpec
		minTicks int64
		ceiling  float64
	}{
		{"run", 0, service, 0, jobRecordRun},
		{"hit", 0, func(int) server.JobSpec { return service(0) }, 0, jobRecordHit},
		{"long", 1, func(i int) server.JobSpec {
			return server.JobSpec{Domain: "synthetic", Scheme: "GP-S0.90", P: 8, Synthetic: &server.SyntheticSpec{W: 30000, Seed: uint64(1 + i)}}
		}, longJobTicks, jobRecordLong},
		{"spooled", 0, func(i int) server.JobSpec {
			return server.JobSpec{Domain: "spooled", Scheme: "GP-S0.90", P: 8 + i}
		}, 0, jobRecordSpooled},
	} {
		b.Run(row.name, func(b *testing.B) {
			cfg := server.Config{JobHistory: jobRecordHistory, CacheSize: 1, ProgressEvery: row.every}
			if row.name == "spooled" {
				cfg.Spool, cfg.Runners = b.TempDir(), map[string]server.Runner{"spooled": spooled}
			}
			srv, err := server.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				if err := srv.Shutdown(context.Background()); err != nil {
					b.Error(err)
				}
			}()
			serve := func(i int) {
				spec, err := srv.CanonicalizeSpec(row.spec(i))
				if err != nil {
					b.Fatal(err)
				}
				h, rf := srv.SubmitCanonical(context.Background(), spec, server.CacheKey(spec), server.DefaultTenant, 1)
				if rf != nil {
					b.Fatalf("job %d refused: %s", i, rf.Message)
				}
				<-h.Done()
				if st := h.Status(); st != server.StatusDone {
					b.Fatalf("job %d finished %s", i, st)
				}
				if row.minTicks > 0 {
					evs := jobEvents(b, srv.Handler(), h.ID())
					// Its log's other events are queued, running and terminal.
					if ticks := evs[len(evs)-1].Seq - 3; ticks < row.minTicks {
						b.Fatalf("job %d emitted %d progress ticks, want at least %d", i, ticks, row.minTicks)
					}
				}
				if row.name == "spooled" {
					evs := jobEvents(b, srv.Handler(), h.ID())
					if n := countType(evs, server.EventCheckpoint); n != spooledCheckpoints {
						b.Fatalf("job %d froze %d checkpoint events, want %d", i, n, spooledCheckpoints)
					}
				}
			}
			serve(0) // a hit row's one engine run
			before := liveHeap()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(1 + i)
			}
			b.StopTimer()
			for i := b.N; i < 2*jobRecordHistory; i++ {
				serve(1 + i)
			}
			perEntry := float64(liveHeap()-before) / jobRecordHistory
			b.ReportMetric(perEntry, "B/entry")
			if perEntry > row.ceiling {
				b.Fatalf("%.0f B of live heap per history entry, want at most %.0f", perEntry, row.ceiling)
			}
		})
	}
}

// jobEvents reads the event stream of finished job id through h, its
// node's handler (GET /v1/jobs/{id}/events): the whole log, which ends
// with the terminal event.
func jobEvents(b *testing.B, h http.Handler, id string) []server.JobEvent {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/events", nil))
	var evs []server.JobEvent
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev server.JobEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				b.Fatalf("job %s: event %q: %v", id, data, err)
			}
			evs = append(evs, ev)
		}
	}
	if len(evs) == 0 || !evs[len(evs)-1].Terminal {
		b.Fatalf("job %s: stream %d %q does not end with a terminal event", id, rec.Code, rec.Body)
	}
	return evs
}

// countType is the number of events of type typ in evs.
func countType(evs []server.JobEvent, typ string) int {
	n := 0
	for _, ev := range evs {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

// liveHeap is the heap in use after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
