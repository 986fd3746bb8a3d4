// Package server implements simdserve, the long-lived HTTP/JSON search
// service over the lock-step SIMD simulator.  It turns the one-shot CLI
// runs into queued jobs: a request names a problem instance, a
// load-balancing scheme and a machine shape; the service canonicalizes the
// spec into a deterministic cache key, executes it on a bounded worker
// pool with per-job cancellation and deadlines, and serves the
// Section 3.1 statistics (and optionally the per-cycle trace) back over
// HTTP.
//
// The design leans on the simulator's central contract (DESIGN.md §8):
// results are bit-for-bit determined by the canonical spec, so a result
// cache keyed by the spec hash can serve byte-identical answers without
// re-simulating — something the paper's physical CM-2 could never promise.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"simdtree/internal/simd"
	"simdtree/internal/synthetic"
	"simdtree/internal/topology"
)

// JobSpec is the wire format of a search request.  Exactly one of the
// per-domain sub-specs must match Domain; the others must be absent.
//
// The field set, JSON names and default-filling rules define the cache
// key (see CacheKey) and are therefore part of the service's compatibility
// contract: changing any of them invalidates every cached result, and the
// golden test in spec_test.go exists to make such a change deliberate.
type JobSpec struct {
	// Domain selects the workload: "puzzle", "synthetic" or "queens".
	Domain string `json:"domain"`
	// Scheme is a Table 1 load-balancing scheme label, e.g. "GP-DK",
	// "nGP-S0.85".
	Scheme string `json:"scheme"`
	// P is the number of simulated processing elements.
	P int `json:"p"`
	// Topology is the interconnect: "cm2" (default), "hypercube", "mesh"
	// or "crossbar".
	Topology string `json:"topology"`
	// BudgetCycles bounds the node-expansion cycles of the run (the
	// Avis–Devroye style per-request budget); 0 means unbounded.  A job
	// that exhausts its budget finishes with StatusExhausted and partial
	// stats.
	BudgetCycles int `json:"budget_cycles,omitempty"`
	// MemBudget bounds the bytes of stack storage each simulated machine
	// keeps resident; cold stack levels spill to disk and fault back on
	// demand (DESIGN.md §17).  0 selects the server default (unbounded
	// unless the operator set one).  By the determinism contract the
	// budget never changes the result — it participates in the cache key
	// only because the spec encoding does, and omitempty keeps budgetless
	// specs on their historical keys.
	MemBudget int64 `json:"mem_budget,omitempty"`
	// TimeoutMS bounds the job's wall-clock execution; 0 selects the
	// server default.  It is deliberately excluded from the cache key: a
	// completed result does not depend on how long it was allowed to take.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// StopAtFirstGoal stops at the first solution instead of searching
	// exhaustively.
	StopAtFirstGoal bool `json:"stop_at_first_goal,omitempty"`
	// Trace additionally records the per-cycle active-PE trace, served at
	// GET /v1/jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`

	Puzzle    *PuzzleSpec    `json:"puzzle,omitempty"`
	Synthetic *SyntheticSpec `json:"synthetic,omitempty"`
	Queens    *QueensSpec    `json:"queens,omitempty"`
}

// PuzzleSpec describes a 15-puzzle instance.  Either Tiles gives the
// start position explicitly (16 values, 0 = blank — the format Korf's
// instances are published in), or Seed/Steps scramble one.
type PuzzleSpec struct {
	Seed  uint64  `json:"seed,omitempty"`
	Steps int     `json:"steps,omitempty"`
	Tiles []uint8 `json:"tiles,omitempty"`
	// Bound is the explicit IDA* cost bound; 0 searches the final
	// (first solving) iteration, as the paper's experiments do.
	Bound int `json:"bound,omitempty"`
	// LC selects the Manhattan+linear-conflict heuristic.
	LC bool `json:"lc,omitempty"`
}

// SyntheticSpec describes a deterministic synthetic tree of exactly W
// nodes.
type SyntheticSpec struct {
	W    int64  `json:"w"`
	Seed uint64 `json:"seed,omitempty"`
}

// QueensSpec describes an n-queens instance.
type QueensSpec struct {
	N int `json:"n"`
}

// Limits the canonicalizer enforces; they keep a single request from
// asking the simulator for an absurd machine.
const (
	MaxP          = 1 << 16
	MaxSyntheticW = int64(1) << 31
	MaxQueensN    = 16
	MaxPuzzleStep = 4096
)

// defaultScrambleSteps matches the CLI default for seeded instances.
const defaultScrambleSteps = 40

// Canonicalize validates spec against the known domain set and fills
// defaults so that every spec admitting the same run maps to one
// canonical value.  Canonicalization is idempotent, and CacheKey is
// defined over its output only.
func Canonicalize(spec JobSpec, domains map[string]bool) (JobSpec, error) {
	c := spec
	c.Domain = strings.TrimSpace(strings.ToLower(c.Domain))
	c.Scheme = strings.TrimSpace(c.Scheme)
	c.Topology = strings.TrimSpace(strings.ToLower(c.Topology))

	if !domains[c.Domain] {
		return JobSpec{}, fmt.Errorf("unknown domain %q (have %s)", c.Domain, domainList(domains))
	}
	if _, err := simd.ParseScheme[synthetic.Node](c.Scheme); err != nil {
		return JobSpec{}, fmt.Errorf("invalid scheme %q: %v", c.Scheme, err)
	}
	if c.P <= 0 {
		return JobSpec{}, fmt.Errorf("p must be positive, got %d", c.P)
	}
	if c.P > MaxP {
		return JobSpec{}, fmt.Errorf("p=%d exceeds the service limit %d", c.P, MaxP)
	}
	if c.Topology == "" {
		c.Topology = "cm2"
	}
	if _, err := topology.ByName(c.Topology); err != nil {
		return JobSpec{}, err
	}
	if c.BudgetCycles < 0 {
		return JobSpec{}, fmt.Errorf("budget_cycles must be non-negative, got %d", c.BudgetCycles)
	}
	if c.MemBudget < 0 {
		return JobSpec{}, fmt.Errorf("mem_budget must be non-negative, got %d", c.MemBudget)
	}
	if c.TimeoutMS < 0 {
		return JobSpec{}, fmt.Errorf("timeout_ms must be non-negative, got %d", c.TimeoutMS)
	}

	subs := 0
	if c.Puzzle != nil {
		subs++
	}
	if c.Synthetic != nil {
		subs++
	}
	if c.Queens != nil {
		subs++
	}
	if subs > 1 {
		return JobSpec{}, fmt.Errorf("spec carries %d domain sub-specs, want at most the %q one", subs, c.Domain)
	}

	switch c.Domain {
	case "puzzle":
		p := PuzzleSpec{}
		if c.Puzzle != nil {
			p = *c.Puzzle
		}
		if len(p.Tiles) != 0 {
			if len(p.Tiles) != 16 {
				return JobSpec{}, fmt.Errorf("puzzle.tiles has %d entries, want 16", len(p.Tiles))
			}
			// An explicit position makes the scramble parameters
			// meaningless; zero them so both spellings share a key.
			p.Seed, p.Steps = 0, 0
		} else {
			if p.Steps == 0 {
				p.Steps = defaultScrambleSteps
			}
			if p.Steps < 0 || p.Steps > MaxPuzzleStep {
				return JobSpec{}, fmt.Errorf("puzzle.steps=%d out of range (0, %d]", p.Steps, MaxPuzzleStep)
			}
		}
		if p.Bound < 0 {
			return JobSpec{}, fmt.Errorf("puzzle.bound must be non-negative, got %d", p.Bound)
		}
		c.Puzzle, c.Synthetic, c.Queens = &p, nil, nil
	case "synthetic":
		if c.Synthetic == nil {
			return JobSpec{}, fmt.Errorf("domain %q needs a synthetic sub-spec", c.Domain)
		}
		s := *c.Synthetic
		if s.W <= 0 || s.W > MaxSyntheticW {
			return JobSpec{}, fmt.Errorf("synthetic.w=%d out of range (0, %d]", s.W, MaxSyntheticW)
		}
		if s.Seed == 0 {
			s.Seed = 1
		}
		c.Puzzle, c.Synthetic, c.Queens = nil, &s, nil
	case "queens":
		if c.Queens == nil {
			return JobSpec{}, fmt.Errorf("domain %q needs a queens sub-spec", c.Domain)
		}
		q := *c.Queens
		if q.N <= 0 || q.N > MaxQueensN {
			return JobSpec{}, fmt.Errorf("queens.n=%d out of range (0, %d]", q.N, MaxQueensN)
		}
		c.Puzzle, c.Synthetic, c.Queens = nil, nil, &q
	default:
		// Extra domains (test injections) carry no sub-spec of their own.
		c.Puzzle, c.Synthetic, c.Queens = nil, nil, nil
	}
	return c, nil
}

// CacheKey hashes a canonical spec into the deterministic result-cache
// key.  TimeoutMS is excluded (a completed result is independent of its
// deadline); every other field participates, including Trace, so traced
// and untraced runs cache separately.  The key is the hex SHA-256 of the
// canonical JSON encoding, whose field order is fixed by the struct
// definition.
func CacheKey(canonical JobSpec) string {
	canonical.TimeoutMS = 0
	b, err := json.Marshal(canonical)
	if err != nil {
		// A JobSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("server: marshal canonical spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// BuiltinDomains names the domains a stock simdserve node serves, sorted:
// the keys of the runner table itself.  The fleet coordinator
// (internal/cluster) and simdsearch canonicalize specs against this set,
// so a bad spec is rejected at the front door instead of bouncing off
// every node.
func BuiltinDomains() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func domainList(domains map[string]bool) string {
	names := make([]string, 0, len(domains))
	for d := range domains {
		names = append(names, d)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
