package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts `// want "regexp"` annotations from fixture files; the
// regexp is matched against "analyzer: message".
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

type wantAnn struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func parseWants(t *testing.T, root string) []*wantAnn {
	t.Helper()
	var wants []*wantAnn
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &wantAnn{file: abs, line: i + 1, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatalf("no want annotations found under %s", root)
	}
	return wants
}

// TestGoldenCorpus runs the full suite over the bad-fixture tree and
// matches every diagnostic against the in-source want annotations, in
// both directions.
func TestGoldenCorpus(t *testing.T) {
	pkgs, err := Load("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("loaded %d fixture packages, want at least 5", len(pkgs))
	}
	diags := Run(pkgs, Analyzers())
	if len(diags) == 0 {
		t.Fatal("golden corpus produced no diagnostics")
	}
	wants := parseWants(t, "testdata/src")
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Analyzer+": "+d.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
	// Each analyzer of the suite must be exercised at least once.
	seen := map[string]bool{}
	for _, d := range diags {
		seen[d.Analyzer] = true
	}
	for _, a := range Analyzers() {
		if !seen[a.Name] {
			t.Errorf("analyzer %s produced no corpus findings", a.Name)
		}
	}
}

// TestAllowDirectives checks the suppression contract: a reasoned
// directive (trailing or on the line above) silences its analyzer, a
// reasonless or unknown-analyzer directive is itself reported and
// suppresses nothing, and a directive for the wrong analyzer is inert.
func TestAllowDirectives(t *testing.T) {
	const fixture = "testdata/allow/simd/allow.go"
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	lineOf := func(match func(string) bool, what string) int {
		for i, line := range strings.Split(string(data), "\n") {
			if match(line) {
				return i + 1
			}
		}
		t.Fatalf("fixture line for %s not found", what)
		return 0
	}
	noReason := lineOf(func(s string) bool { return strings.HasSuffix(strings.TrimSpace(s), "//lint:allow detrand") }, "reasonless directive")
	unknown := lineOf(func(s string) bool { return strings.Contains(s, "nosuchcheck") }, "unknown analyzer")
	mismatch := lineOf(func(s string) bool { return strings.Contains(s, "//lint:allow errdrop") }, "mismatched analyzer")

	pkgs, err := Load("testdata/allow")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, Analyzers())

	want := []struct {
		line     int
		analyzer string
		substr   string
	}{
		{noReason, "directive", "missing reason"},
		{noReason, "detrand", "time.Now"},
		{unknown, "directive", "unknown analyzer"},
		{unknown, "detrand", "time.Now"},
		{mismatch, "detrand", "time.Now"},
	}
	matched := make([]bool, len(diags))
	for _, w := range want {
		found := false
		for i, d := range diags {
			if !matched[i] && d.Pos.Line == w.line && d.Analyzer == w.analyzer && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic: line %d %s (%q)", w.line, w.analyzer, w.substr)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic (suppression failed?): %s", d)
		}
	}
}

// TestDeterministicOutput pins the reporting contract: diagnostics come
// out sorted by file, line, column and analyzer, and two runs over the
// same tree produce byte-identical reports — CI diffs and the golden
// corpus depend on it.
func TestDeterministicOutput(t *testing.T) {
	render := func() []string {
		pkgs, err := Load("testdata/src")
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, d := range Run(pkgs, Analyzers()) {
			out = append(out, d.String())
		}
		return out
	}
	first := render()
	if len(first) == 0 {
		t.Fatal("corpus produced no diagnostics")
	}
	pkgs, err := Load("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, Analyzers())
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && (a.Pos.Line > b.Pos.Line ||
				(a.Pos.Line == b.Pos.Line && (a.Pos.Column > b.Pos.Column ||
					(a.Pos.Column == b.Pos.Column && a.Analyzer > b.Analyzer))))) {
			t.Errorf("diagnostics out of order at %d:\n\t%s\n\t%s", i, a, b)
		}
	}
	second := make([]string, len(diags))
	for i, d := range diags {
		second[i] = d.String()
	}
	if strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Errorf("two runs differ:\nfirst:\n%s\nsecond:\n%s",
			strings.Join(first, "\n"), strings.Join(second, "\n"))
	}
}

// TestLoadErrors checks that broken trees fail with the offending
// package named, which the driver surfaces verbatim before exiting 2.
func TestLoadErrors(t *testing.T) {
	t.Run("parse", func(t *testing.T) {
		dir := t.TempDir()
		sub := filepath.Join(dir, "broken")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "broken.go"), []byte("package broken\nfunc {"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(dir)
		if err == nil {
			t.Fatal("Load succeeded on a tree with a parse error")
		}
		if !strings.Contains(err.Error(), "parse errors in package broken") {
			t.Errorf("parse error does not name the package: %v", err)
		}
	})
	t.Run("type", func(t *testing.T) {
		dir := t.TempDir()
		sub := filepath.Join(dir, "untyped")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "untyped.go"), []byte("package untyped\n\nvar x = undefinedIdent\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(dir)
		if err == nil {
			t.Fatal("Load succeeded on a tree with a type error")
		}
		if !strings.Contains(err.Error(), "type errors in fixture/untyped") {
			t.Errorf("type error does not name the package: %v", err)
		}
	})
}

// TestRepoClean is the invariant the linter exists to protect: the real
// codebase must load and pass the full suite with zero unsuppressed
// findings, and every //lint:allow in it must suppress one.
func TestRepoClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	for _, p := range pkgs {
		paths[p.Path] = true
	}
	for _, want := range []string{
		"simdtree",
		"simdtree/internal/simd",
		"simdtree/internal/lint",
		"simdtree/cmd/simdlint",
	} {
		if !paths[want] {
			t.Errorf("loader missed package %s", want)
		}
	}
	diags, unused := run(pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
	// benchmark/ is the benchmark of record and changes only with its own
	// baseline, so a stale directive there is listed for that change.
	exempt := filepath.Join(root, "benchmark") + string(filepath.Separator)
	for _, dir := range unused {
		if !strings.HasPrefix(dir.file, exempt) {
			t.Errorf("%s:%d: %s %s suppresses nothing; delete it", dir.file, dir.line, directivePrefix, dir.analyzer)
		}
	}
}
