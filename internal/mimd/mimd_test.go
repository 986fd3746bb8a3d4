package mimd

import (
	"testing"

	"simdtree/internal/search"
	"simdtree/internal/synthetic"
)

// TestWorkConservation verifies that every policy expands exactly the
// serial node count: work stealing moves nodes, never duplicates or drops
// them.
func TestWorkConservation(t *testing.T) {
	tree := synthetic.New(30000, 5)
	serial := search.DFS[synthetic.Node](tree)
	for _, pol := range []Policy{GRR, ARR, RP} {
		stats, err := Run[synthetic.Node](tree, Options{P: 32, Policy: pol, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if stats.W != serial.Expanded {
			t.Errorf("%v: W=%d, serial=%d", pol, stats.W, serial.Expanded)
		}
		if e := stats.Efficiency(); e <= 0 || e > 1 {
			t.Errorf("%v: efficiency %f out of range", pol, e)
		}
		if stats.StealSuccesses == 0 {
			t.Errorf("%v: no successful steals on a 32-processor run", pol)
		}
		if stats.StealSuccesses > stats.StealAttempts {
			t.Errorf("%v: more successes (%d) than attempts (%d)", pol, stats.StealSuccesses, stats.StealAttempts)
		}
	}
}

// TestSingleProcessor checks the degenerate machine: everything is useful
// computation, efficiency 1.
func TestSingleProcessor(t *testing.T) {
	tree := synthetic.New(500, 5)
	stats, err := Run[synthetic.Node](tree, Options{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.W != 500 {
		t.Errorf("W=%d, want 500", stats.W)
	}
	if e := stats.Efficiency(); e < 0.999 {
		t.Errorf("efficiency %f, want ~1", e)
	}
}

// TestDeterminism verifies repeated runs agree bit-for-bit.
func TestDeterminism(t *testing.T) {
	tree := synthetic.New(10000, 77)
	a, err := Run[synthetic.Node](tree, Options{P: 16, Policy: RP, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run[synthetic.Node](tree, Options{P: 16, Policy: RP, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestMIMDStatsPinned pins every schedule-visible statistic of the
// simulator on a grid covering all three policies, P=1 and trees from 500
// to 200 000 nodes.  The values were recorded on the commit before the
// simulator moved from per-PE slice-of-levels stacks onto stack.Arena; they
// must not move when the stack representation does — nor when a reply's
// work parks in arena slot P+requester instead of riding on the event.
func TestMIMDStatsPinned(t *testing.T) {
	golden := []struct {
		w                                      int64
		p                                      int
		pol                                    Policy
		W, tpar, tidle, tlb                    int64
		transfers, maxTransfer, peak, att, suc int
	}{
		{500, 1, GRR, 500, 15000000000, 0, 0, 0, 0, 13, 0, 0},
		{500, 1, ARR, 500, 15000000000, 0, 0, 0, 0, 13, 0, 0},
		{500, 1, RP, 500, 15000000000, 0, 0, 0, 0, 13, 0, 0},
		{500, 16, GRR, 500, 7040000000, 97640000000, 0, 35, 5, 13, 295, 35},
		{500, 16, ARR, 500, 6080000000, 82280000000, 0, 39, 5, 13, 249, 39},
		{500, 16, RP, 500, 7310000000, 101960000000, 0, 39, 5, 12, 310, 39},
		{500, 64, GRR, 500, 7950000000, 493800000000, 0, 21, 5, 13, 673, 21},
		{500, 64, ARR, 500, 7230000000, 447720000000, 0, 19, 5, 13, 613, 19},
		{500, 64, RP, 500, 8100000000, 503400000000, 0, 23, 5, 13, 681, 23},
		{500, 256, GRR, 500, 10410000000, 2649960000000, 0, 10, 5, 13, 2031, 10},
		{500, 256, ARR, 500, 10410000000, 2649960000000, 0, 10, 5, 13, 2030, 10},
		{500, 256, RP, 500, 10360000000, 2637160000000, 0, 16, 3, 13, 2033, 16},
		{30000, 1, GRR, 30000, 900000000000, 0, 0, 0, 0, 31, 0, 0},
		{30000, 1, ARR, 30000, 900000000000, 0, 0, 0, 0, 31, 0, 0},
		{30000, 1, RP, 30000, 900000000000, 0, 0, 0, 0, 31, 0, 0},
		{30000, 16, GRR, 30000, 78180000000, 350880000000, 0, 594, 7, 22, 1090, 594},
		{30000, 16, ARR, 30000, 69850000000, 217600000000, 0, 357, 8, 25, 673, 357},
		{30000, 16, RP, 30000, 73240000000, 271840000000, 0, 408, 8, 23, 841, 408},
		{30000, 64, GRR, 30000, 47880000000, 2164320000000, 0, 788, 7, 22, 2974, 788},
		{30000, 64, ARR, 30000, 86070000000, 4608480000000, 0, 824, 7, 25, 6368, 824},
		{30000, 64, RP, 30000, 57150000000, 2757600000000, 0, 747, 7, 23, 3805, 747},
		{30000, 256, GRR, 30000, 86090000000, 21139040000000, 0, 649, 8, 24, 16409, 649},
		{30000, 256, ARR, 30000, 80870000000, 19802720000000, 0, 603, 8, 24, 15368, 603},
		{30000, 256, RP, 30000, 96710000000, 23857760000000, 0, 608, 8, 30, 18522, 608},
		{200000, 1, GRR, 200000, 6000000000000, 0, 0, 0, 0, 40, 0, 0},
		{200000, 1, ARR, 200000, 6000000000000, 0, 0, 0, 0, 40, 0, 0},
		{200000, 1, RP, 200000, 6000000000000, 0, 0, 0, 0, 40, 0, 0},
		{200000, 16, GRR, 200000, 403740000000, 459840000000, 0, 1077, 8, 32, 1431, 1077},
		{200000, 16, ARR, 200000, 399780000000, 396480000000, 0, 834, 9, 32, 1232, 834},
		{200000, 16, RP, 200000, 407520000000, 520320000000, 0, 1258, 9, 32, 1617, 1258},
		{200000, 64, GRR, 200000, 157170000000, 4058880000000, 0, 2717, 9, 31, 5610, 2717},
		{200000, 64, ARR, 200000, 196950000000, 6604800000000, 0, 2699, 8, 28, 9143, 2699},
		{200000, 64, RP, 200000, 155340000000, 3941760000000, 0, 2712, 8, 31, 5446, 2712},
		{200000, 256, GRR, 200000, 154710000000, 33605760000000, 0, 3718, 8, 27, 26128, 3718},
		{200000, 256, ARR, 200000, 132590000000, 27943040000000, 0, 3036, 9, 29, 21700, 3036},
		{200000, 256, RP, 200000, 119620000000, 24622720000000, 0, 3390, 8, 31, 19113, 3390},
	}
	trees := map[int64]*synthetic.Tree{}
	for _, g := range golden {
		tree := trees[g.w]
		if tree == nil {
			tree = synthetic.New(g.w, 5)
			trees[g.w] = tree
		}
		s, err := Run[synthetic.Node](tree, Options{P: g.p, Policy: g.pol, Seed: 3})
		if err != nil {
			t.Fatalf("W=%d P=%d %v: %v", g.w, g.p, g.pol, err)
		}
		got := []int64{s.W, int64(s.Tpar), int64(s.Tidle), int64(s.Tlb), int64(s.Transfers),
			int64(s.MaxTransfer), int64(s.PeakStack), int64(s.StealAttempts), int64(s.StealSuccesses)}
		want := []int64{g.W, g.tpar, g.tidle, g.tlb, int64(g.transfers),
			int64(g.maxTransfer), int64(g.peak), int64(g.att), int64(g.suc)}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("W=%d P=%d %v: stats %v, want %v", g.w, g.p, g.pol, got, want)
				break
			}
		}
	}
}
