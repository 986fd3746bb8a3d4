package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A Package is one parsed and type-checked package of the tree under lint.
type Package struct {
	Path  string // import path ("fixture/<dir>" when no go.mod is present)
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test files only
	Types *types.Package
	Info  *types.Info
}

// sharedFset and sharedStd let successive Loads (the driver plus the test
// suite) reuse the source importer's cache of type-checked standard
// library packages, which dominates load time.  Loads are sequential; no
// locking is needed.
var (
	sharedFset = token.NewFileSet()
	sharedStd  types.ImporterFrom
)

func stdImporter() types.ImporterFrom {
	if sharedStd == nil {
		sharedStd = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
	}
	return sharedStd
}

// modImporter resolves module-internal import paths from the packages
// checked so far and everything else (the standard library) from source.
type modImporter struct {
	mod map[string]*types.Package
}

func (m *modImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.mod[path]; ok {
		return p, nil
	}
	return stdImporter().ImportFrom(path, "", 0)
}

// Load parses and type-checks every non-test package under root.  root is
// either a module root (go.mod supplies the import-path prefix) or a bare
// fixture tree (import paths become fixture/<rel>).  Test files are never
// loaded: the analyzers deliberately police production code only.
func Load(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath := modulePath(root)
	dirs, err := goDirs(root)
	if err != nil {
		return nil, err
	}

	type parsed struct {
		pkg  *Package
		deps []string // module-internal import paths
	}
	byPath := make(map[string]*parsed, len(dirs))
	var paths []string
	for _, dir := range dirs {
		pkg, err := parseDir(root, modPath, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue
		}
		byPath[pkg.Path] = &parsed{pkg: pkg}
		paths = append(paths, pkg.Path)
	}
	sort.Strings(paths)

	for _, p := range byPath {
		seen := map[string]bool{}
		for _, f := range p.pkg.Files {
			for _, imp := range f.Imports {
				ipath, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if _, ok := byPath[ipath]; ok && !seen[ipath] {
					seen[ipath] = true
					p.deps = append(p.deps, ipath)
				}
			}
		}
		sort.Strings(p.deps)
	}

	// Type-check in dependency order.
	checked := map[string]*types.Package{}
	imp := &modImporter{mod: checked}
	var out []*Package
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int, len(byPath))
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = visiting
		p := byPath[path]
		for _, dep := range p.deps {
			if err := visit(dep); err != nil {
				return err
			}
		}
		if err := check(p.pkg, imp); err != nil {
			return err
		}
		checked[path] = p.pkg.Types
		state[path] = done
		out = append(out, p.pkg)
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// check type-checks one parsed package, filling in Types and Info.
func check(pkg *Package, imp types.Importer) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	//lint:allow errdrop type errors are collected through conf.Error and reported below
	tpkg, _ := conf.Check(pkg.Path, pkg.Fset, pkg.Files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for i, err := range errs {
			if i == 10 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-i))
				break
			}
			msgs = append(msgs, err.Error())
		}
		return fmt.Errorf("lint: type errors in %s:\n\t%s", pkg.Path, strings.Join(msgs, "\n\t"))
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// parseDir parses the non-test Go files of one directory; it returns nil
// when none are left after filtering.
func parseDir(root, modPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(sharedFset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			rel := dir
			if r, rerr := filepath.Rel(root, dir); rerr == nil {
				rel = r
			}
			return nil, fmt.Errorf("lint: parse errors in package %s:\n\t%v", rel, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	name := files[0].Name.Name
	for _, f := range files[1:] {
		if f.Name.Name != name {
			return nil, fmt.Errorf("lint: %s: mixed package names %s and %s", dir, name, f.Name.Name)
		}
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	prefix := modPath
	if prefix == "" {
		prefix = "fixture"
	}
	ipath := prefix
	if rel != "." {
		ipath = prefix + "/" + filepath.ToSlash(rel)
	}
	return &Package{Path: ipath, Name: name, Dir: dir, Fset: sharedFset, Files: files}, nil
}

// goDirs returns every directory under root holding Go files, skipping
// testdata, vendor, and hidden or underscore-prefixed directories.
func goDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root {
			name := d.Name()
			if name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// modulePath reads the module path from root/go.mod, or "" if absent.
func modulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}
