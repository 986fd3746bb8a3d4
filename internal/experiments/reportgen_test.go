package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestWriteReport generates the full markdown report at tiny scale and
// checks it contains every experiment section with tables and verdicts.
func TestWriteReport(t *testing.T) {
	var md bytes.Buffer
	if err := WriteReport(tinySyntheticSuite(), TinyScale, &md); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	for _, frag := range []string{
		"# Experiment report",
		"## Table 2",
		"## Table 3",
		"## Table 4",
		"## Table 5",
		"## Table 6",
		"## Figure 4",
		"## Figure 7",
		"## Figure 8",
		"## Section 8 baselines",
		"## SIMD vs MIMD",
		"## Speedup anomalies",
		"**Verdict:**",
		"|---|",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
	if strings.Contains(out, "\t") {
		t.Error("report contains raw tab-formatted runner output")
	}
	if got := strings.Count(out, "**Verdict:**"); got < 10 {
		t.Errorf("only %d verdicts, want at least 10", got)
	}
}
