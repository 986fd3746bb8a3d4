// Package lint implements simdlint, the repository's zero-dependency
// static analyser.  The simulator's core contract (see the doc comment of
// internal/simd/machine.go) is that schedules, node counts and virtual
// times are bit-for-bit deterministic for a given (domain, scheme,
// options) and invariant under the Workers shard count; this package
// enforces the coding rules that contract depends on, plus a few generic
// correctness checks, using only the standard library's go/parser, go/ast
// and go/types (the repository deliberately has no external dependencies,
// so golang.org/x/tools is off limits).
//
// The analyzers, each run over one package at a time:
//
//   - detrand: wall-clock reads and process-global randomness inside the
//     deterministic packages.
//   - maporder: order-sensitive writes inside `range` loops over maps in
//     the deterministic packages.
//   - errdrop: statements and blank assignments that discard an error.
//   - ctxflow: exported blocking functions of the engine and service
//     packages without a context.Context, and root contexts minted in
//     library code.
//
// The engine's zero-allocation contract is not linted: the allocation
// tests and benchmarks of the hot path measure what the compiler emits.
//
// A finding is suppressed by a line comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// on the same line as the finding, on the line directly above it, or on
// the line directly above the start of the (possibly multi-line)
// statement containing it.  The reason is mandatory: a directive without
// one is itself reported, and the underlying finding is kept.  A reasoned
// directive that suppresses nothing fails TestRepoClean, and so does one
// naming an analyzer the suite does not have, which can suppress nothing.
//
// Diagnostics are emitted sorted by file, line, column and analyzer, so
// two runs over the same tree render byte-identical reports.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"sort"
	"strings"
)

// A Diagnostic is one finding of one analyzer at one source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// An Analyzer is one named check, handed one package at a time.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass hands one package to one analyzer and collects its reports.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// deterministicPkgs names the packages whose results must be bit-for-bit
// reproducible; detrand and maporder only fire inside these.
var deterministicPkgs = map[string]bool{
	"simd":     true,
	"search":   true,
	"stack":    true,
	"trigger":  true,
	"match":    true,
	"scan":     true,
	"topology": true,
	"wire":     true,
}

// deterministic reports whether pkg is subject to the determinism-only
// analyzers.
func deterministic(pkg *Package) bool {
	return deterministicPkgs[path.Base(pkg.Path)]
}

// Analyzers returns the full suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetRand, MapOrder, ErrDrop, CtxFlow}
}

// Run applies analyzers to pkgs, resolves //lint:allow suppressions, and
// returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	kept, _ := run(pkgs, analyzers)
	return kept
}

// run is Run that also returns the well-formed directives which
// suppressed no finding, among them every directive naming no analyzer of
// the suite.
func run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []directive) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, report: report})
		}
	}
	dirs, dirDiags := directives(pkgs)
	diags = append(diags, dirDiags...)
	spans := stmtSpans(pkgs)
	used := make([]bool, len(dirs))
	var kept []Diagnostic
	for _, d := range diags {
		if !suppressed(d, dirs, spans, used) {
			kept = append(kept, d)
		}
	}
	var unused []directive
	for i, dir := range dirs {
		if !used[i] {
			unused = append(unused, dir)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, unused
}

// A directive is one well-formed //lint:allow comment.
type directive struct {
	file     string
	line     int
	analyzer string
}

const directivePrefix = "//lint:allow"

// directives collects well-formed suppressions from every file's comments
// and reports malformed ones (missing analyzer, missing reason) as
// diagnostics in their own right, attributed to the pseudo analyzer
// "directive".  A directive naming an analyzer the suite does not run is
// well-formed: it suppresses nothing, so run lists it as unused.
func directives(pkgs []*Package) ([]directive, []Diagnostic) {
	var dirs []directive
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, directivePrefix)
					if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
						continue // e.g. //lint:allowance — not a directive
					}
					pos := pkg.Fset.Position(c.Pos())
					bad := func(format string, args ...any) {
						diags = append(diags, Diagnostic{
							Pos:      pos,
							Analyzer: "directive",
							Message:  fmt.Sprintf(format, args...),
						})
					}
					fields := strings.Fields(rest)
					switch {
					case len(fields) == 0:
						bad("malformed %s: missing analyzer name and reason", directivePrefix)
					case len(fields) == 1:
						bad("%s %s: missing reason (a justification is mandatory)", directivePrefix, fields[0])
					default:
						dirs = append(dirs, directive{file: pos.Filename, line: pos.Line, analyzer: fields[0]})
					}
				}
			}
		}
	}
	return dirs, diags
}

// stmtSpan is the line extent of one statement (or declaration) of one
// file, used to anchor suppression directives to whole statements.
type stmtSpan struct {
	start, end int
}

// stmtSpans indexes, per file, the line extents of every statement and
// top-level non-function declaration.  A finding on any line of a
// multi-line statement is then suppressible by a directive above the
// statement's first line, not just above the finding's own line — a
// wrapped call would otherwise be impossible to annotate.
func stmtSpans(pkgs []*Package) map[string][]stmtSpan {
	spans := map[string][]stmtSpan{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			ast.Inspect(f, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.GenDecl:
				default:
					if _, ok := n.(ast.Stmt); !ok {
						return true
					}
				}
				start := pkg.Fset.Position(n.Pos()).Line
				end := pkg.Fset.Position(n.End()).Line
				if end > start {
					spans[name] = append(spans[name], stmtSpan{start: start, end: end})
				}
				return true
			})
		}
	}
	return spans
}

// anchorLine returns the first line of the innermost multi-line statement
// covering line in file, or line itself when no statement does.
func anchorLine(spans map[string][]stmtSpan, file string, line int) int {
	anchor := line
	bestStart, bestEnd := -1, int(^uint(0)>>1)
	for _, s := range spans[file] {
		if s.start > line || line > s.end {
			continue
		}
		if s.start > bestStart || (s.start == bestStart && s.end < bestEnd) {
			bestStart, bestEnd = s.start, s.end
			anchor = s.start
		}
	}
	return anchor
}

// suppressed reports whether a well-formed directive covers d: on the same
// line, on the line directly above, or on the line directly above the
// innermost multi-line statement containing the finding.  Every covering
// directive is marked in used.  Directive diagnostics are never
// suppressible.
func suppressed(d Diagnostic, dirs []directive, spans map[string][]stmtSpan, used []bool) bool {
	if d.Analyzer == "directive" {
		return false
	}
	anchor := anchorLine(spans, d.Pos.Filename, d.Pos.Line)
	hit := false
	for i, dir := range dirs {
		if dir.analyzer != d.Analyzer || dir.file != d.Pos.Filename {
			continue
		}
		if dir.line == d.Pos.Line || dir.line == d.Pos.Line-1 ||
			dir.line == anchor || dir.line == anchor-1 {
			used[i] = true
			hit = true
		}
	}
	return hit
}
