package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchSpec is BENCHMARK.json: the contract file at the repository root.
// The regression bounds live only there.
type benchSpec struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWorkload `json:"workloads"`
	EndToEnd   []benchMetric   `json:"end_to_end"`
	PerLayer   []benchMetric   `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchMetric is one metric entry; per-layer entries carry no bound.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles is -compare: one row per (end-to-end metric, workload)
// with both values and how much worse B is as a share of A, and an error
// naming every pair that exceeded its bound.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) error {
	var spec benchSpec
	var a, b resultFile
	if err := readJSON(benchPath, &spec); err != nil {
		return err
	}
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	bad := compareResults(w, spec, a, b)
	if len(bad) > 0 {
		return fmt.Errorf("%d of the (metric, workload) pairs are out of bounds:\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	fmt.Fprintln(w, "every (metric, workload) pair is within its bound")
	return nil
}

// exactOn reports whether the metric is a pure function of the seed on
// the workload.  That holds for the engine workloads only: a service run
// averages over however many jobs its ten seconds completed.
func exactOn(workload, metric string) bool {
	if wd, _ := findWorkload(workload); wd != nil && wd.engine == nil {
		return false
	}
	for _, d := range endToEnd {
		if d.Name == metric {
			return d.Exact
		}
	}
	return false
}

func compareResults(w io.Writer, spec benchSpec, a, b resultFile) []string {
	sameInputs := a.Env.Seed == b.Env.Seed && a.Env.Scale == b.Env.Scale
	fmt.Fprintf(w, "A: commit=%s seed=%d scale=%s   B: commit=%s seed=%d scale=%s\n",
		a.Env.Commit, a.Env.Seed, a.Env.Scale, b.Env.Commit, b.Env.Seed, b.Env.Scale)
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %10s %7s  %s\n", "metric", "workload", "A", "B", "worse", "bound", "verdict")
	var bad []string
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			bad = append(bad, fmt.Sprintf("%s: missing from a result file", wl.Name))
			continue
		}
		if rb.EndToEnd.Failed > ra.EndToEnd.Failed || !rb.EndToEnd.Correct {
			bad = append(bad, fmt.Sprintf("%s: %d of %d ops failed in B (%d of %d in A)", wl.Name,
				rb.EndToEnd.Failed, rb.EndToEnd.Attempted, ra.EndToEnd.Failed, ra.EndToEnd.Attempted))
		}
		for _, m := range spec.EndToEnd {
			va, okA := ra.EndToEnd.Metrics[m.Name]
			vb, okB := rb.EndToEnd.Metrics[m.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-16s %-14s %14s %14s %10s %7.3f  MISSING\n", m.Name, wl.Name, "-", "-", "-", m.Bound)
				bad = append(bad, fmt.Sprintf("%s on %s: missing from a result file", m.Name, wl.Name))
				continue
			}
			// worse is how much worse B is, as a share of A (the base).
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case sameInputs && exactOn(wl.Name, m.Name) && math.Float64bits(va.Value) != math.Float64bits(vb.Value):
				verdict = "DRIFT (exact for a given seed)"
			case worse > m.Bound:
				verdict = "EXCEEDED"
			}
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %+9.2f%% %6.1f%%  %s\n",
				m.Name, wl.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, verdict)
			if verdict != "ok" {
				bad = append(bad, fmt.Sprintf("%s on %s: A=%g B=%g, %+.2f%% of A worse, bound %.1f%%: %s",
					m.Name, wl.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, verdict))
			}
		}
	}
	return bad
}
