package synthetic

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// parentTree is the general generator Expand replaced, kept verbatim as
// the referee: MaxBranch and Skew are fields, read per node as they were
// (so a paired timing against it is fair), set to the values every tree
// used, 4 and 3.  Its Expand has a modulo draw, a skew loop, two 16-wide
// scratch arrays and four passes; Tree.Expand must emit exactly its
// children.
type parentTree struct {
	Tree
	MaxBranch int     // maximum children per node (>= 2)
	Skew      float64 // imbalance exponent; larger = more irregular
}

func newParent(w int64, seed uint64) *parentTree {
	return &parentTree{Tree: Tree{W: w, Seed: seed}, MaxBranch: 4, Skew: 3}
}

func (t *parentTree) Expand(n Node, buf []Node) []Node {
	remaining := n.Budget - 1
	if remaining <= 0 {
		return buf
	}
	maxBranch := t.MaxBranch
	if maxBranch < 2 {
		maxBranch = 4
	}
	skew := t.Skew
	if skew <= 0 {
		skew = 3
	}
	// Scratch arrays are fixed-size so the hot expansion path (called
	// once per simulated node) does not allocate.
	const maxK = 16
	if maxBranch > maxK {
		maxBranch = maxK
	}
	state := n.Seed
	k := 1 + int(splitmix64(&state)%uint64(maxBranch))
	if int64(k) > remaining {
		k = int(remaining)
	}
	// Draw skewed weights: w_i = u_i^skew with u_i uniform in (0, 1].
	var weights [maxK]float64
	var total float64
	for i := 0; i < k; i++ {
		u := float64(splitmix64(&state)>>11)/(1<<53) + 1e-12
		w := u
		for e := 1; e < int(skew); e++ {
			w *= u
		}
		weights[i] = w
		total += w
	}
	// Give every child one node up front, then split the rest by weight.
	spare := remaining - int64(k)
	var assigned int64
	var budgets [maxK]int64
	for i := 0; i < k; i++ {
		b := int64(float64(spare) * weights[i] / total)
		budgets[i] = 1 + b
		assigned += 1 + b
	}
	// Rounding leftovers go to the heaviest child.
	heaviest := 0
	for i := 1; i < k; i++ {
		if budgets[i] > budgets[heaviest] {
			heaviest = i
		}
	}
	budgets[heaviest] += remaining - assigned
	for _, b := range budgets[:k] {
		buf = append(buf, Node{Budget: b, Seed: splitmix64(&state)})
	}
	return buf
}

// maxW is the largest synthetic W a job spec may ask for
// (server.MaxSyntheticW, which this package cannot import).
const maxW = int64(1) << 31

// sameChildren reports whether Tree.Expand and parentTree.Expand give n
// the same children, appending after a non-empty prefix to check Expand
// leaves it.
func sameChildren(t *testing.T, tr *Tree, ref *parentTree, n Node) bool {
	t.Helper()
	prefix := []Node{{Budget: -1, Seed: 42}}
	got := tr.Expand(n, append([]Node(nil), prefix...))
	want := ref.Expand(n, append([]Node(nil), prefix...))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Expand(%+v) = %v, the parent's generator gives %v", n, got[1:], want[1:])
		return false
	}
	return true
}

// TestExpandMatchesParent holds Expand to the parent's generator node by
// node: on random (Budget, Seed) pairs over every budget a job may ask
// for, and on every small budget, where k is clamped to the budget and the
// leftover rounding decides most of the split.
func TestExpandMatchesParent(t *testing.T) {
	tr, ref := New(maxW, 1), newParent(maxW, 1)
	f := func(budget int64, seed uint64) bool {
		return sameChildren(t, tr, ref, Node{Budget: budget, Seed: seed})
	}
	cfg := &quick.Config{
		MaxCount: 20000,
		Rand:     rand.New(rand.NewSource(1)),
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(1 + r.Int63n(maxW))
			args[1] = reflect.ValueOf(r.Uint64())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	for budget := int64(1); budget <= 64; budget++ {
		for s := uint64(0); s < 1000; s++ {
			if !sameChildren(t, tr, ref, Node{Budget: budget, Seed: splitmix64(&s)}) {
				return
			}
		}
	}
}

// treeHash is an FNV-64 of the tree's (Budget, Seed) stream in DFS order,
// the order search.DFS and the serial baselines visit it in.
func treeHash(tr *Tree) uint64 {
	h := fnv.New64()
	var b [16]byte
	stk := []Node{tr.Root()}
	for len(stk) > 0 {
		n := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		binary.LittleEndian.PutUint64(b[:8], uint64(n.Budget))
		binary.LittleEndian.PutUint64(b[8:], n.Seed)
		h.Write(b[:])
		stk = tr.Expand(n, stk)
	}
	return h.Sum64()
}

// TestTreeGolden pins whole trees, from the one-node tree to one of W = 2M,
// so no change to the generator can move a node without failing here.
func TestTreeGolden(t *testing.T) {
	golden := []struct {
		w    int64
		seed uint64
		hash uint64
	}{
		{1, 1, 0xbab32a407ee4733c},
		{1, 2, 0x1cab2f04570e2d45},
		{1, 3, 0x8d406c678413caee},
		{1, 7, 0xdb7d97ea50cbad32},
		{2, 1, 0x4b5c33c50f5c30e9},
		{2, 2, 0x7a5b543b2372cd77},
		{2, 3, 0x8074a720eb1f8105},
		{2, 7, 0xceb27bcf73d48bde},
		{3, 1, 0xa075322fb847ce9},
		{3, 2, 0xf1b2983a7a1cb04b},
		{3, 3, 0x2df6fce512eb1f55},
		{3, 7, 0x405aadc3541adff9},
		{5, 1, 0xd283bd5017ce0727},
		{5, 2, 0x4e52b67c13dd9eba},
		{5, 3, 0x3e72314b2864145a},
		{5, 7, 0x5caed646db66f7df},
		{1000, 1, 0x3ff53698f546f977},
		{1000, 2, 0x370ff054ecd91e23},
		{1000, 3, 0xca53a3ccfaf944f2},
		{1000, 7, 0x1ecd55897293c28c},
		{30000, 1, 0xb9dec6bf6f5c0769},
		{30000, 2, 0xb57cf6ae339bc762},
		{30000, 3, 0x5e3896b13740d019},
		{30000, 7, 0xbe4bbf1bda064be0},
		{2000000, 1, 0x37019254222145fe},
		{2000000, 2, 0xbb09b628aea85ca5},
		{2000000, 3, 0x9398252b703115df},
		{2000000, 7, 0xaead98e6ba257d61},
	}
	for _, g := range golden {
		if got := treeHash(New(g.w, g.seed)); got != g.hash {
			t.Errorf("W=%d seed=%d: tree hash %#x, want %#x", g.w, g.seed, got, g.hash)
		}
	}
}
