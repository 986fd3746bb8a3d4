package simd

import (
	"fmt"
	"strings"

	"simdtree/internal/match"
	"simdtree/internal/stack"
	"simdtree/internal/trigger"
)

// Scheme couples a triggering mechanism with a load-balancing phase
// implementation — the two components the paper identifies as making up an
// efficient SIMD tree search (Section 1).
type Scheme[S any] struct {
	// Label identifies the scheme in reports, e.g. "GP-S0.90" or "nGP-DP".
	Label string
	// Trigger decides when a load-balancing phase starts.
	Trigger trigger.Trigger
	// Balancer performs the phase.
	Balancer Balancer[S]
	// Splitter is the alpha-splitting mechanism donors use; nil selects
	// the paper's bottom-node splitter.
	Splitter stack.Splitter[S]
	// WantInit reports that the scheme expects the S^0.85 initial
	// distribution phase the paper uses for dynamic triggers (Section 7).
	WantInit bool
}

// NewScheme assembles a standard scheme from a matcher name ("GP" or
// "nGP"), a trigger, and the transfer policy.  D^P triggering always uses
// multiple work transfers per phase, as the paper requires (Section 2.3).
func NewScheme[S any](matcherName string, trig trigger.Trigger, multi bool) (Scheme[S], error) {
	parts, m, err := newSchemeParts(matcherName, trig)
	if err != nil {
		return Scheme[S]{}, err
	}
	return Scheme[S]{
		Label:    parts.Label,
		Trigger:  parts.Trigger,
		Balancer: &MatchBalancer[S]{Matcher: m, Multi: multi || parts.Multi},
		Splitter: stack.BottomNode[S]{},
		WantInit: parts.WantInit,
	}, nil
}

// ParseScheme parses a scheme label of the form "<matcher>-<trigger>",
// e.g. "GP-S0.90", "nGP-DP", "GP-DK".  The six combinations of Table 1 are
// all expressible; D^P implies multiple transfers.
func ParseScheme[S any](label string) (Scheme[S], error) {
	matcherName, trig, err := splitLabel(label)
	if err != nil {
		return Scheme[S]{}, err
	}
	return NewScheme[S](matcherName, trig, false)
}

// splitLabel splits "<matcher>-<trigger>" and parses the trigger half.
func splitLabel(label string) (matcherName string, trig trigger.Trigger, err error) {
	i := strings.Index(label, "-")
	if i < 0 {
		return "", nil, fmt.Errorf("simd: scheme label %q is not <matcher>-<trigger>", label)
	}
	trig, err = trigger.Parse(label[i+1:])
	return label[:i], trig, err
}

// SchemeParts is the codec-erased decomposition of a scheme label: the
// matcher instance, trigger and transfer policy without the generic
// balancer wrapper.  The distributed-stealing coordinator uses it to run
// the global schedule (trigger evaluation, matching, GP pointer) for a
// run whose node type it never sees.
type SchemeParts struct {
	// Label is the canonical scheme label, e.g. "GP-DK".
	Label string
	// Matcher is a fresh matcher instance (GP pointer parked).
	Matcher match.Matcher
	// Trigger decides when a load-balancing phase starts.
	Trigger trigger.Trigger
	// Multi selects repeated matching/transfer rounds per phase.
	Multi bool
	// WantInit reports the scheme expects the S^0.85 initial distribution.
	WantInit bool
}

// ParseSchemeParts parses a scheme label into its codec-erased parts,
// under the same rules as ParseScheme/NewScheme.
func ParseSchemeParts(label string) (SchemeParts, error) {
	matcherName, trig, err := splitLabel(label)
	if err != nil {
		return SchemeParts{}, err
	}
	parts, _, err := newSchemeParts(matcherName, trig)
	return parts, err
}

// newSchemeParts is where the scheme rules live: the matcher a name
// selects, D^P implying multiple transfers, and the dynamic triggers
// wanting the initial distribution.  The fresh matcher is returned twice —
// inside the parts as the []bool-facing Matcher the distributed driver
// consumes, and as the BitMatcher the engine's balancer runs on.
func newSchemeParts(matcherName string, trig trigger.Trigger) (SchemeParts, match.BitMatcher, error) {
	var m match.BitMatcher
	switch matcherName {
	case "GP":
		m = match.NewGP()
	case "nGP":
		m = &match.NGP{}
	default:
		return SchemeParts{}, nil, fmt.Errorf("simd: unknown matcher %q", matcherName)
	}
	_, dynDP := trig.(trigger.DP)
	_, dynDK := trig.(trigger.DK)
	return SchemeParts{
		Label:    matcherName + "-" + trig.Name(),
		Matcher:  m,
		Trigger:  trig,
		Multi:    dynDP,
		WantInit: dynDP || dynDK,
	}, m, nil
}

// StaticScheme returns <matcher>-S<x>.
func StaticScheme[S any](matcherName string, x float64) (Scheme[S], error) {
	return NewScheme[S](matcherName, trigger.Static{X: x}, false)
}

// Table1Labels lists the six load-balancing schemes of the paper's Table 1
// for a representative static threshold x.
func Table1Labels(x float64) []string {
	s := trigger.Static{X: x}.Name()
	return []string{
		"nGP-" + s, "nGP-DP", "nGP-DK",
		"GP-" + s, "GP-DP", "GP-DK",
	}
}
