package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide call graph the module analyzers
// (hotalloc, ctxflow) run on.  The graph is purely static and stdlib-only:
// direct calls resolve through go/types object use information, generic
// instantiations are canonicalised to their origin declaration, and calls
// through module-defined interfaces are devirtualised with a
// class-hierarchy approximation — an edge is added to every module method
// that can satisfy the interface method.  Calls into the standard library
// and calls through plain function values are not edges; analyzers that
// need soundness there handle the call expression itself (e.g. hotalloc
// checks interface boxing at any call site).

// hotpathDirective marks a function declaration as a zero-allocation hot
// path root for the hotalloc analyzer: the function and everything
// statically reachable from it must not allocate.
const hotpathDirective = "//lint:hotpath"

// A Function is one module function or method with a body, as a call-graph
// node.
type Function struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Hot records a //lint:hotpath directive on the declaration.
	Hot bool
	// Calls are the outgoing edges in source order.
	Calls []*Edge
}

// An Edge is one static call from Caller to Callee; a devirtualised
// interface call is one edge per implementation the site can reach.
type Edge struct {
	Caller *Function
	Callee *Function
}

// A CallGraph indexes every module function and its statically resolvable
// call edges.
type CallGraph struct {
	Fset  *token.FileSet
	Funcs map[*types.Func]*Function
	// Sorted lists the functions in (filename, offset) order so analyzers
	// iterate deterministically.
	Sorted []*Function
}

// FuncOf returns the graph node for obj (canonicalised through Origin), or
// nil when obj is not a module function with a body.
func (g *CallGraph) FuncOf(obj *types.Func) *Function {
	if obj == nil {
		return nil
	}
	return g.Funcs[obj.Origin()]
}

// DisplayName renders a function as pkg.Name or pkg.(*Recv).Name for
// diagnostics.
func (f *Function) DisplayName() string {
	pkg := f.Pkg.Name
	sig, ok := f.Obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + "." + f.Obj.Name()
	}
	recv := sig.Recv().Type()
	ptr := ""
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
		ptr = "*"
	}
	name := "?"
	switch t := recv.(type) {
	case *types.Named:
		name = t.Obj().Name()
	case *types.TypeParam:
		name = t.Obj().Name()
	}
	if ptr == "" {
		return fmt.Sprintf("%s.%s.%s", pkg, name, f.Obj.Name())
	}
	return fmt.Sprintf("%s.(%s%s).%s", pkg, ptr, name, f.Obj.Name())
}

// StableID renders a function with its full import path, the form the
// -hotpath root listing pins.
func (f *Function) StableID() string {
	base := f.DisplayName()
	if i := strings.IndexByte(base, '.'); i >= 0 {
		return f.Pkg.Path + base[i:]
	}
	return f.Pkg.Path + "." + base
}

// BuildCallGraph constructs the module call graph over pkgs.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Funcs: map[*types.Func]*Function{}}
	if len(pkgs) == 0 {
		return g
	}
	g.Fset = pkgs[0].Fset

	// Pass 1: register every function declaration and its hotpath mark.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			hotLines := hotpathLines(pkg, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &Function{Obj: obj, Decl: fd, Pkg: pkg, Hot: hotMark(pkg, fd, hotLines)}
				g.Funcs[obj] = fn
				g.Sorted = append(g.Sorted, fn)
			}
		}
	}
	sort.Slice(g.Sorted, func(i, j int) bool {
		a := g.Fset.Position(g.Sorted[i].Decl.Pos())
		b := g.Fset.Position(g.Sorted[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})

	// Method index for devirtualisation: every module method by name.
	methodsByName := map[string][]*Function{}
	for _, fn := range g.Sorted {
		if sig, ok := fn.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			methodsByName[fn.Obj.Name()] = append(methodsByName[fn.Obj.Name()], fn)
		}
	}

	// Pass 2: resolve call sites to edges.
	for _, fn := range g.Sorted {
		info := fn.Pkg.Info
		ast.Inspect(fn.Decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(info, call)
			if callee == nil {
				return true
			}
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && isInterfaceRecv(sig.Recv().Type()) {
				for _, impl := range devirtualize(callee, methodsByName) {
					fn.Calls = append(fn.Calls, &Edge{Caller: fn, Callee: impl})
				}
				return true
			}
			if target := g.FuncOf(callee); target != nil {
				fn.Calls = append(fn.Calls, &Edge{Caller: fn, Callee: target})
			}
			return true
		})
	}
	return g
}

// hotpathLines collects the lines of every //lint:hotpath comment in file.
func hotpathLines(pkg *Package, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if text := strings.TrimSpace(c.Text); text == hotpathDirective ||
				strings.HasPrefix(text, hotpathDirective+" ") {
				lines[pkg.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// hotMark reports whether fd carries a hotpath directive: inside its doc
// comment or on the line directly above the declaration.
func hotMark(pkg *Package, fd *ast.FuncDecl, hotLines map[int]bool) bool {
	if len(hotLines) == 0 {
		return false
	}
	start := pkg.Fset.Position(fd.Pos()).Line
	if fd.Doc != nil {
		docStart := pkg.Fset.Position(fd.Doc.Pos()).Line
		docEnd := pkg.Fset.Position(fd.Doc.End()).Line
		for l := docStart; l <= docEnd; l++ {
			if hotLines[l] {
				return true
			}
		}
	}
	return hotLines[start-1]
}

// staticCallee resolves the *types.Func a call expression names, Origin
// canonicalised; nil for builtins, conversions and plain function values.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			obj = info.Uses[id]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// isInterfaceRecv reports whether a method receiver type is an interface
// (or a type parameter, whose method set is interface-shaped).
func isInterfaceRecv(t types.Type) bool {
	if _, ok := t.(*types.TypeParam); ok {
		return true
	}
	return types.IsInterface(t)
}

// devirtualize returns the module methods an interface-method call can
// statically reach.  For ground (non-generic) interfaces the candidates
// are checked with types.Implements; when the interface involves type
// parameters the check degrades to name plus parameter/result arity, a
// deliberate over-approximation that keeps reachability sound.
func devirtualize(iface *types.Func, methodsByName map[string][]*Function) []*Function {
	var out []*Function
	sig, ok := iface.Type().(*types.Signature)
	if !ok {
		return nil
	}
	recv := sig.Recv().Type()
	ground := !hasTypeParams(recv, 0)
	var ifaceT *types.Interface
	if ground {
		if u, isIface := recv.Underlying().(*types.Interface); isIface {
			ifaceT = u
		} else {
			ground = false
		}
	}
	for _, cand := range methodsByName[iface.Name()] {
		csig, ok := cand.Obj.Type().(*types.Signature)
		if !ok || csig.Recv() == nil || isInterfaceRecv(csig.Recv().Type()) {
			continue
		}
		if ground && !hasTypeParams(csig.Recv().Type(), 0) {
			ct := csig.Recv().Type()
			if p, isPtr := ct.(*types.Pointer); isPtr {
				ct = p.Elem()
			}
			if types.Implements(ct, ifaceT) || types.Implements(types.NewPointer(ct), ifaceT) {
				out = append(out, cand)
			}
			continue
		}
		// Generic interface (or generic implementation): match by name and
		// arity.  Variadic/non-variadic mismatches are tolerated.
		if csig.Params().Len() == sig.Params().Len() && csig.Results().Len() == sig.Results().Len() {
			out = append(out, cand)
		}
	}
	return out
}

// hasTypeParams reports whether t mentions a type parameter anywhere in
// its structure (bounded depth, cycles broken by the named-type shortcut).
func hasTypeParams(t types.Type, depth int) bool {
	if depth > 8 || t == nil {
		return false
	}
	switch t := t.(type) {
	case *types.TypeParam:
		return true
	case *types.Named:
		if t.TypeParams().Len() > 0 && t.TypeArgs().Len() == 0 {
			return true
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			if hasTypeParams(t.TypeArgs().At(i), depth+1) {
				return true
			}
		}
		return false
	case *types.Pointer:
		return hasTypeParams(t.Elem(), depth+1)
	case *types.Slice:
		return hasTypeParams(t.Elem(), depth+1)
	case *types.Array:
		return hasTypeParams(t.Elem(), depth+1)
	case *types.Map:
		return hasTypeParams(t.Key(), depth+1) || hasTypeParams(t.Elem(), depth+1)
	case *types.Chan:
		return hasTypeParams(t.Elem(), depth+1)
	case *types.Signature:
		for i := 0; i < t.Params().Len(); i++ {
			if hasTypeParams(t.Params().At(i).Type(), depth+1) {
				return true
			}
		}
		for i := 0; i < t.Results().Len(); i++ {
			if hasTypeParams(t.Results().At(i).Type(), depth+1) {
				return true
			}
		}
		return false
	}
	return false
}

// HotpathRoots returns the stable identifiers of every //lint:hotpath
// root in pkgs, sorted — the driver's -hotpath listing, which the
// lint-hotpath make target diffs against the committed inventory so a
// root cannot silently lose its annotation.
func HotpathRoots(pkgs []*Package) []string {
	g := BuildCallGraph(pkgs)
	var ids []string
	for _, fn := range g.HotRoots() {
		ids = append(ids, fn.StableID())
	}
	sort.Strings(ids)
	return ids
}

// HotRoots returns the hotpath-annotated functions in deterministic order.
func (g *CallGraph) HotRoots() []*Function {
	var roots []*Function
	for _, fn := range g.Sorted {
		if fn.Hot {
			roots = append(roots, fn)
		}
	}
	return roots
}

// ReachableFromHot computes the functions statically reachable from the
// hotpath roots.  The returned map carries, for every reachable function,
// the edge that first discovered it (nil for roots), from which a
// root-to-function explanation trace can be reconstructed; the BFS visits
// edges in deterministic (source) order so traces are stable.
func (g *CallGraph) ReachableFromHot() map[*Function]*Edge {
	parent := map[*Function]*Edge{}
	var queue []*Function
	for _, root := range g.HotRoots() {
		if _, seen := parent[root]; !seen {
			parent[root] = nil
			queue = append(queue, root)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, e := range fn.Calls {
			if _, seen := parent[e.Callee]; !seen {
				parent[e.Callee] = e
				queue = append(queue, e.Callee)
			}
		}
	}
	return parent
}

// HotTrace renders the root-to-fn call chain recorded by ReachableFromHot
// as "root → ... → fn".
func HotTrace(parent map[*Function]*Edge, fn *Function) string {
	var names []string
	for cur := fn; ; {
		names = append(names, cur.DisplayName())
		e := parent[cur]
		if e == nil {
			break
		}
		cur = e.Caller
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}
