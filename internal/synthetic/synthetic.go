// Package synthetic generates highly irregular, deterministic search trees
// with an exactly controllable total node count W.  The isoefficiency
// experiments (Figures 4 and 7 of the paper) need dense grids of (W, P)
// runs; the 15-puzzle cannot dial W continuously, but these trees can, and
// their node expansion is so cheap that grids of hundreds of runs complete
// in minutes.
//
// Construction: every node carries a budget.  Expanding a node consumes one
// unit and splits the remainder across 1 to 4 children by random weights
// u³, u uniform in (0, 1], so sibling subtrees differ in size by orders of
// magnitude — the "highly irregular" trees the paper targets — while the
// depth stays O(log W).  By induction the tree rooted at budget W contains
// exactly W nodes, and a node's children are a pure function of its seed.
package synthetic

// Node is a synthetic tree node: the size of its subtree and the PRNG seed
// that determines its children.
type Node struct {
	Budget int64  // number of nodes in the subtree rooted here (>= 1)
	Seed   uint64 // deterministic source of this node's branching
}

// Tree is a synthetic search domain.  It implements search.Domain[Node].
type Tree struct {
	W    int64  // total nodes in the tree (root budget)
	Seed uint64 // tree identity
}

// maxBranch is the most children a node has; a power of two, so a draw
// picks the count with a mask.
const maxBranch = 4

// New returns a tree of exactly w nodes: each node has 1 to 4 children
// whose subtree sizes follow weights u³.
func New(w int64, seed uint64) *Tree {
	return &Tree{W: w, Seed: seed}
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
// remaining budget across its children.  The draws from the node's seed
// are, in order, the child count k, k weights and the k child seeds; every
// pinned tree and schedule depends on that order.
func (t *Tree) Expand(n Node, buf []Node) []Node {
	remaining := n.Budget - 1
	if remaining <= 0 {
		return buf
	}
	state := n.Seed
	k := 1 + int(splitmix64(&state)&(maxBranch-1))
	if int64(k) > remaining {
		k = int(remaining)
	}
	// Weights u³ with u uniform in (0, 1].
	var w [maxBranch]float64
	var total float64
	for i := range w[:k] {
		u := float64(splitmix64(&state)>>11)/(1<<53) + 1e-12
		w[i] = u * u * u
		total += w[i]
	}
	// Every child gets one node up front and its weight's share of the
	// rest; the rounding leftover goes to the first heaviest child.
	spare := float64(remaining - int64(k))
	heaviest, most, assigned := 0, int64(0), int64(0)
	for i := range w[:k] {
		b := 1 + int64(spare*w[i]/total)
		if b > most {
			heaviest, most = i, b
		}
		assigned += b
		buf = append(buf, Node{Budget: b, Seed: splitmix64(&state)})
	}
	buf[len(buf)-k+heaviest].Budget += remaining - assigned
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
