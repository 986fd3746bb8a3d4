package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenTinySynthetic runs every subcommand at tiny scale on the
// synthetic domain and compares stdout and every CSV file with
// testdata, byte for byte.  For report only the headings and verdicts
// are pinned, outside code blocks; its tables are the text tables.  In
// fig4.csv and fig7.csv each scheme's iso rows are listed by level, the
// order the levels are given in.
func TestGoldenTinySynthetic(t *testing.T) {
	dir := t.TempDir()
	for _, cmd := range []string{"table2", "table3", "table4", "table5", "table6", "fig1", "fig3", "fig4", "fig7", "fig8",
		"ablations", "baselines", "mimd", "anomalies", "variance", "report"} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-scale", "tiny", "-domain", "synthetic", "-csv", dir, cmd}, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v\n%s", cmd, err, stderr.String())
		}
		want := readFile(t, filepath.Join("testdata", cmd+".txt"))
		got := stdout.String()
		if cmd == "report" {
			want, got = headingsAndVerdicts(want), headingsAndVerdicts(got)
		}
		if got != want {
			t.Errorf("%s: stdout differs from testdata/%s.txt\n--- got\n%s", cmd, cmd, got)
		}
	}
	csvs, err := filepath.Glob(filepath.Join("testdata", "csv", "*.csv"))
	if err != nil || len(csvs) == 0 {
		t.Fatalf("no golden CSV files: %v", err)
	}
	for _, golden := range csvs {
		name := filepath.Base(golden)
		if got, want := readFile(t, filepath.Join(dir, name)), readFile(t, golden); got != want {
			t.Errorf("%s differs from testdata/csv/%s\n--- got\n%s", name, name, got)
		}
	}
}

// headingsAndVerdicts keeps a markdown report's heading and verdict
// lines, skipping fenced code blocks.
func headingsAndVerdicts(md string) string {
	var b strings.Builder
	fenced := false
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		if !fenced && (strings.HasPrefix(line, "#") || strings.HasPrefix(line, "**Verdict:**")) {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestUsage checks an unknown or missing subcommand fails with the list
// of subcommands, and that -h prints the flags and succeeds, as the other
// commands' -h does.
func TestUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		err  error
		want string
	}{
		{[]string{"-domain", "synthetic", "table9"}, errUsage, "table2|table3"},
		{[]string{"-domain", "synthetic"}, errUsage, "table2|table3"},
		{[]string{"-h"}, nil, "-scale"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(tc.args, &stdout, &stderr); err != tc.err {
			t.Errorf("%v: err %v, want %v", tc.args, err, tc.err)
		}
		if !strings.Contains(stderr.String(), tc.want) || stdout.Len() != 0 {
			t.Errorf("%v: stderr %q, stdout %q", tc.args, stderr.String(), stdout.String())
		}
	}
}
