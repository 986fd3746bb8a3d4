// Package synthetic generates highly irregular, deterministic search trees
// with an exactly controllable total node count W.  The isoefficiency
// experiments (Figures 4 and 7 of the paper) need dense grids of (W, P)
// runs; the 15-puzzle cannot dial W continuously, but these trees can, and
// their node expansion is so cheap that grids of hundreds of runs complete
// in minutes.
//
// Construction: every node carries a budget.  Expanding a node consumes one
// unit and splits the remainder across a random number of children using
// skewed random weights, so sibling subtrees differ in size by orders of
// magnitude — the "highly irregular" trees the paper targets.  By
// induction the tree rooted at budget W contains exactly W nodes, and the
// whole tree is a pure function of the seed.
package synthetic

// Node is a synthetic tree node: the size of its subtree and the PRNG seed
// that determines its children.
type Node struct {
	Budget int64  // number of nodes in the subtree rooted here (>= 1)
	Seed   uint64 // deterministic source of this node's branching
}

// Tree is a synthetic search domain.  It implements search.Domain[Node].
type Tree struct {
	W         int64   // total nodes in the tree (root budget)
	Seed      uint64  // tree identity
	MaxBranch int     // maximum children per node (>= 2)
	Skew      float64 // imbalance exponent; larger = more irregular
}

// New returns a tree of exactly w nodes.  maxBranch defaults to 4 and skew
// to 3 when zero; both defaults produce trees with depth O(log W) but
// sibling subtrees of wildly different sizes.
func New(w int64, seed uint64) *Tree {
	return &Tree{W: w, Seed: seed, MaxBranch: 4, Skew: 3}
}

// Root implements search.Domain.
func (t *Tree) Root() Node {
	w := t.W
	if w < 1 {
		w = 1
	}
	return Node{Budget: w, Seed: t.Seed ^ 0x1234567890abcdef}
}

// Goal implements search.Domain; synthetic trees have no goal nodes — the
// workload is exhaustive traversal, as in the paper's all-solutions runs.
func (t *Tree) Goal(Node) bool { return false }

// Expand implements search.Domain, deterministically splitting the node's
// remaining budget across its children.
func (t *Tree) Expand(n Node, buf []Node) []Node {
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

// splitmix64 is the same tiny PRNG used across the repository's
// deterministic generators.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
