// Command simdlint runs the repository's determinism and correctness
// analyzers (internal/lint) over the module and exits non-zero on any
// unsuppressed finding, so it can gate CI.
//
// Usage:
//
//	simdlint [flags] [./... | ./internal/simd ...]
//	simdlint -analyzers
//
// With no arguments (or "./...") every non-test package of the enclosing
// module is checked.  Directory arguments restrict which findings are
// reported; the whole module is always loaded and analysed, one package
// at a time.  Findings print as
//
//	path/file.go:line:col: analyzer: message
//
// sorted by file, line, column and analyzer, and are suppressed only by
// an in-source "//lint:allow <analyzer> <reason>" comment (see
// internal/lint).
//
// -github additionally prints GitHub Actions ::error workflow annotations.
// Exit status: 0 clean, 1 findings, 2 load or usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"simdtree/internal/lint"
)

func main() {
	analyzers := flag.Bool("analyzers", false, "list the analyzers and exit")
	github := flag.Bool("github", false, "print GitHub Actions ::error annotations")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: simdlint [-analyzers] [-github] [packages]")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *analyzers {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := moduleRoot()
	if err != nil {
		fail(err)
	}
	pkgs, err := lint.Load(root)
	if err != nil {
		fail(err)
	}

	diags := lint.Run(pkgs, lint.Analyzers())
	diags, err = filter(diags, flag.Args(), pkgs, root)
	if err != nil {
		fail(err)
	}
	relativize(diags)

	if len(diags) == 0 {
		return
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if *github {
		for _, d := range diags {
			fmt.Printf("::error file=%s,line=%d,col=%d::%s: %s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	fmt.Fprintf(os.Stderr, "simdlint: %d finding(s)\n", len(diags))
	os.Exit(1)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "simdlint:", err)
	os.Exit(2)
}

// relativize rewrites diagnostic filenames relative to the working
// directory when they fall under it, matching the compiler's style and
// the paths GitHub annotations expect.
func relativize(diags []lint.Diagnostic) {
	cwd, err := os.Getwd()
	if err != nil {
		return // fall back to absolute paths in the report
	}
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
}

// filter restricts diags to findings under the directories named by args.
// No args, or any "./..."-style whole-module pattern, keeps everything.
// The module is always fully loaded and analysed, so restricting is a
// report filter, not an analysis scope.
func filter(diags []lint.Diagnostic, args []string, pkgs []*lint.Package, root string) ([]lint.Diagnostic, error) {
	if len(args) == 0 {
		return diags, nil
	}
	type scope struct {
		dir       string
		recursive bool
	}
	var scopes []scope
	for _, arg := range args {
		if arg == "./..." || arg == "..." || arg == "." {
			return diags, nil
		}
		recursive := false
		if rest, ok := strings.CutSuffix(arg, "/..."); ok {
			recursive = true
			arg = rest
		}
		dir, err := filepath.Abs(arg)
		if err != nil {
			return nil, err
		}
		matched := false
		for _, p := range pkgs {
			if p.Dir == dir || (recursive && underDir(p.Dir, dir)) {
				matched = true
				break
			}
		}
		if !matched {
			return nil, fmt.Errorf("no packages match %s (module root %s)", arg, root)
		}
		scopes = append(scopes, scope{dir: dir, recursive: recursive})
	}
	var keep []lint.Diagnostic
	for _, d := range diags {
		fileDir := filepath.Dir(d.Pos.Filename)
		for _, s := range scopes {
			if fileDir == s.dir || (s.recursive && underDir(fileDir, s.dir)) {
				keep = append(keep, d)
				break
			}
		}
	}
	return keep, nil
}

// underDir reports whether path is dir or below it.
func underDir(path, dir string) bool {
	return strings.HasPrefix(path+string(filepath.Separator), dir+string(filepath.Separator))
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
