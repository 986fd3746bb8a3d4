package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestRegistryMatchesBenchmarkJSON keeps BENCHMARK.json and the harness
// from drifting apart: same workloads with the same reasons, same metrics
// with the same units and directions, in the same order.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the registry %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the registry %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
	}

	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the registry %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the registry %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: name or bound %v outside the contract's limits", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the registry %d", len(spec.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the registry %+v", i, m, d)
		}
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per-layer metric %q: bad or repeated name", m.Name)
		}
		seen[m.Name] = true
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d or paths %q outside what the harness assumes", spec.RunSeconds, spec.Paths)
	}
}

// TestSmokeAllWorkloads runs all six workloads and their traced passes at
// the short scale, the way the acceptance driver invokes them, and checks
// every metric BENCHMARK.json declares comes back with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "1", "--seconds", "1", "--trace", trace, "-scale", "short"}
				if err := run(context.Background(), args, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
				var res struct {
					Correct   *bool `json:"correct"`
					Attempted *int  `json:"attempted"`
					Failed    *int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
				}
				if res.Correct == nil || res.Attempted == nil || res.Failed == nil {
					t.Fatalf("result lacks correct/attempted/failed: %s", lines[len(lines)-1])
				}
				if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", *res.Correct, *res.Attempted, *res.Failed, out.String())
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok || m.Value == nil:
						t.Errorf("metric %s not emitted", name)
					case m.Unit != unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case trace == "0" && *m.Value <= 0:
						t.Errorf("end-to-end metric %s is %v; the contract wants it never 0", name, *m.Value)
					}
				}
			})
		}
	}
}
