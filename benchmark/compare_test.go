package main

import (
	"io"
	"strings"
	"testing"
)

// compareSpec is a four-metric, one-workload BENCHMARK.json.
func compareSpec() benchSpec {
	return benchSpec{
		Workloads: []benchWorkload{{Name: "w"}},
		EndToEnd: []benchMetric{
			{Name: "latency_ms_p50", Better: "lower", Bound: 0.10},
			{Name: "nodes_per_s", Better: "higher", Bound: 0.10},
			{Name: "sim_efficiency", Better: "higher", Bound: 0.03},
			{Name: "ok_share", Better: "higher", Bound: 0.001},
		},
	}
}

func handMade(seed int64, values map[string]float64, failed int) resultFile {
	r := newResult("w", false, 100, failed)
	for name, v := range values {
		r.Metrics[name] = metricValue{Value: v}
	}
	return resultFile{
		Env:       envBlock{Seed: seed, Scale: "full"},
		Workloads: map[string]*workloadRuns{"w": {EndToEnd: r}},
	}
}

func TestCompare(t *testing.T) {
	base := map[string]float64{"latency_ms_p50": 10, "nodes_per_s": 1000, "sim_efficiency": 0.8, "ok_share": 1}
	with := func(name string, v float64) map[string]float64 {
		m := map[string]float64{}
		for k, x := range base {
			m[k] = x
		}
		if v < 0 {
			delete(m, name)
		} else {
			m[name] = v
		}
		return m
	}
	cases := []struct {
		name    string
		b       resultFile
		wantBad []string // substrings, one per expected violation
	}{
		{"identical", handMade(1, base, 0), nil},
		{"within bound", handMade(1, with("latency_ms_p50", 10.9), 0), nil},
		{"better is never a violation", handMade(1, with("nodes_per_s", 5000), 0), nil},
		{"beyond bound, lower is better", handMade(1, with("latency_ms_p50", 11.5), 0), []string{"latency_ms_p50 on w"}},
		{"beyond bound, higher is better", handMade(1, with("nodes_per_s", 850), 0), []string{"nodes_per_s on w"}},
		{"exact metric drifts inside its bound, same seed", handMade(1, with("sim_efficiency", 0.7999), 0), []string{"sim_efficiency on w"}},
		{"exact metric differs inside its bound, other seed", handMade(2, with("sim_efficiency", 0.7999), 0), nil},
		{"missing metric", handMade(1, with("nodes_per_s", -1), 0), []string{"nodes_per_s on w: missing"}},
		{"ok_share falls", handMade(1, with("ok_share", 0.97), 3), []string{"3 of 100 ops failed", "ok_share on w"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := compareResults(io.Discard, compareSpec(), handMade(1, base, 0), tc.b)
			if len(bad) != len(tc.wantBad) {
				t.Fatalf("violations %q, want %d matching %q", bad, len(tc.wantBad), tc.wantBad)
			}
			for i, want := range tc.wantBad {
				if !strings.Contains(bad[i], want) {
					t.Errorf("violation %d is %q, want it to name %q", i, bad[i], want)
				}
			}
		})
	}
}

func TestCompareMissingWorkload(t *testing.T) {
	a := handMade(1, map[string]float64{"latency_ms_p50": 10}, 0)
	b := resultFile{Workloads: map[string]*workloadRuns{}}
	bad := compareResults(io.Discard, compareSpec(), a, b)
	if len(bad) != 1 || !strings.Contains(bad[0], "w: missing") {
		t.Fatalf("violations %q, want the missing workload named", bad)
	}
}
