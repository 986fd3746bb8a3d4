// Package knapsack implements the 0/1 knapsack problem as a depth-first
// branch-and-bound workload: choose a subset of items maximising total
// value under a weight capacity.  Branch-and-bound over take/skip
// decisions with the classic fractional (Dantzig) relaxation bound gives
// the highly irregular, order-sensitive trees the paper's DFBB use case
// (Section 2) implies — and, unlike the exhaustive IDA* workloads, its
// node counts exhibit the speedup anomalies the paper's analysis excludes.
//
// Costs are negated values so the problem fits the repository's
// minimisation interface: Cost = -(total value).
package knapsack

import (
	"sort"
)

// Item is a knapsack item.
type Item struct {
	Weight int64
	Value  int64
}

// Problem is a knapsack instance with items pre-sorted by value density
// (best first), which maximises the strength of the fractional bound.
type Problem struct {
	Items    []Item
	Capacity int64
	// suffixWeight[i] and suffixValue[i] are the totals of items i..n-1,
	// used to short-circuit bound computation.
	suffixWeight []int64
	suffixValue  []int64
}

// Node is a partial decision: items 0..Next-1 decided, of which the taken
// ones weigh Weight and are worth Value.
type Node struct {
	Next   uint16
	Weight int64
	Value  int64
}

// New builds a problem from items and a capacity; the items are copied
// and sorted by density.
func New(items []Item, capacity int64) *Problem {
	p := &Problem{Items: append([]Item(nil), items...), Capacity: capacity}
	sort.SliceStable(p.Items, func(i, j int) bool {
		// value/weight descending, computed cross-multiplied to stay in
		// integers; zero-weight items (free value) come first.
		a, b := p.Items[i], p.Items[j]
		return a.Value*b.Weight > b.Value*a.Weight
	})
	n := len(p.Items)
	p.suffixWeight = make([]int64, n+1)
	p.suffixValue = make([]int64, n+1)
	for i := n - 1; i >= 0; i-- {
		p.suffixWeight[i] = p.suffixWeight[i+1] + p.Items[i].Weight
		p.suffixValue[i] = p.suffixValue[i+1] + p.Items[i].Value
	}
	return p
}

// Random builds a deterministic random instance of n items: weights in
// [1, 100], values in [1, 100], capacity at half the total weight.  These
// are the uncorrelated instances standard in the branch-and-bound
// literature; they are comparatively easy because the fractional bound is
// nearly tight.
func Random(n int, seed uint64) *Problem {
	items := make([]Item, n)
	state := seed ^ 0xDEADBEEFCAFE
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var total int64
	for i := range items {
		items[i].Weight = int64(next()%100) + 1
		items[i].Value = int64(next()%100) + 1
		total += items[i].Weight
	}
	return New(items, total/2)
}

// RandomCorrelated builds a strongly correlated instance (value = weight
// + 10), the classic hard family for Dantzig-bound branch-and-bound:
// densities are nearly uniform, so the fractional relaxation prunes
// poorly and the search tree becomes large and irregular.
func RandomCorrelated(n int, seed uint64) *Problem {
	items := make([]Item, n)
	state := seed ^ 0xC0881A7ED
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var total int64
	for i := range items {
		items[i].Weight = int64(next()%100) + 1
		items[i].Value = items[i].Weight + 10
		total += items[i].Weight
	}
	return New(items, total/2)
}

// Root implements search.OptimizationDomain.
func (p *Problem) Root() Node { return Node{} }

// Complete implements search.OptimizationDomain.
func (p *Problem) Complete(n Node) bool { return int(n.Next) == len(p.Items) }

// Cost implements search.OptimizationDomain: the negated value, so
// minimising cost maximises value.
func (p *Problem) Cost(n Node) int64 { return -n.Value }

// Expand implements search.OptimizationDomain: decide the next item, take
// branch first (good solutions early improve pruning).
func (p *Problem) Expand(n Node, buf []Node) []Node {
	i := int(n.Next)
	if i == len(p.Items) {
		return buf
	}
	it := p.Items[i]
	skip := Node{Next: n.Next + 1, Weight: n.Weight, Value: n.Value}
	buf = append(buf, skip)
	if n.Weight+it.Weight <= p.Capacity {
		take := Node{Next: n.Next + 1, Weight: n.Weight + it.Weight, Value: n.Value + it.Value}
		buf = append(buf, take)
	}
	return buf
}

// LowerBound implements search.OptimizationDomain via the Dantzig
// fractional relaxation: fill the remaining capacity greedily by density,
// taking a fraction of the first item that does not fit.  The bound is
// admissible: no 0/1 completion can beat the fractional optimum.
func (p *Problem) LowerBound(n Node) int64 {
	i := int(n.Next)
	remaining := p.Capacity - n.Weight
	value := n.Value
	// Everything left fits: the bound is exact.
	if p.suffixWeight[i] <= remaining {
		return -(value + p.suffixValue[i])
	}
	for ; i < len(p.Items); i++ {
		it := p.Items[i]
		if it.Weight <= remaining {
			remaining -= it.Weight
			value += it.Value
			continue
		}
		// Fractional part, rounded up (keeps the bound admissible).
		value += (it.Value*remaining + it.Weight - 1) / it.Weight
		break
	}
	return -value
}

// OptimalByDP solves the instance exactly by dynamic programming over
// capacities — an independent oracle used by the tests to validate
// branch-and-bound.  It runs in O(n * capacity) time and memory.
func (p *Problem) OptimalByDP() int64 {
	cap := int(p.Capacity)
	best := make([]int64, cap+1)
	for _, it := range p.Items {
		w := int(it.Weight)
		for c := cap; c >= w; c-- {
			if v := best[c-w] + it.Value; v > best[c] {
				best[c] = v
			}
		}
	}
	return best[cap]
}
