package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// ctxPkgs names the packages whose exported blocking functions must
// accept a context.Context: the engine and the two service layers, where
// an unbounded wait without cancellation hangs a worker or a request.
var ctxPkgs = map[string]bool{
	"simd":    true,
	"server":  true,
	"cluster": true,
	"traffic": true,
	"steal":   true,
}

// CtxFlow enforces context propagation: an exported function of the
// engine/server/cluster packages whose body can block — channel
// operations, selects without a default, WaitGroup/Cond waits, HTTP
// round-trips, sleeps — must accept a context.Context so callers can bound
// the wait.  Function literals are skipped when classifying a function as
// blocking (a closure may run on another goroutine), but the whole module
// is checked for context.Background()/context.TODO() in library code,
// which silently detaches work from the caller's cancellation: only
// main packages (cmd, examples) may mint root contexts.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "exported blocking function without a context.Context, or a root context minted in library code",
	RunModule: func(p *ModulePass) {
		for _, fn := range p.Graph.Sorted {
			if fn.Pkg.Name != "main" {
				checkRootContexts(p, fn)
			}
			if !ctxPkgs[path.Base(fn.Pkg.Path)] || !fn.Obj.Exported() || acceptsContext(fn) {
				continue
			}
			if pos, what, blocks := firstBlockingOp(fn); blocks {
				p.Reportf(fn.Decl.Name.Pos(),
					"exported %s blocks (%s at line %d) but does not accept a context.Context",
					fn.DisplayName(), what, p.Fset.Position(pos).Line)
			}
		}
	},
}

// checkRootContexts flags context.Background()/TODO() anywhere in fn,
// closures included.
func checkRootContexts(p *ModulePass, fn *Function) {
	info := fn.Pkg.Info
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, name := range [...]string{"Background", "TODO"} {
			if pkgFuncCall(info, call, "context", name) {
				p.Reportf(call.Pos(),
					"context.%s() in library code detaches from the caller's cancellation; accept and propagate a context instead",
					name)
			}
		}
		return true
	})
}

// firstBlockingOp returns the first operation in fn's own body (closures
// excluded) that can block indefinitely.
func firstBlockingOp(fn *Function) (pos token.Pos, what string, blocks bool) {
	info := fn.Pkg.Info
	comm := selectCommOps(fn)
	ownBody(fn, func(n ast.Node) bool {
		if blocks {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !comm[n] {
				pos, what, blocks = n.Pos(), "channel receive", true
			}
		case *ast.SendStmt:
			if !comm[n] {
				pos, what, blocks = n.Arrow, "channel send", true
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				pos, what, blocks = n.Pos(), "select without default", true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					pos, what, blocks = n.Pos(), "range over channel", true
				}
			}
		case *ast.CallExpr:
			if w, isBlocking := blockingCall(info, n); isBlocking {
				pos, what, blocks = n.Pos(), w, true
			}
		}
		return !blocks
	})
	return pos, what, blocks
}

// selectCommOps collects the channel operations that are the comm
// statements of select clauses in fn: those do not block by themselves —
// the enclosing select does (and only without a default clause), so it
// alone is classified.
func selectCommOps(fn *Function) map[ast.Node]bool {
	comm := map[ast.Node]bool{}
	ownBody(fn, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			switch s := cc.Comm.(type) {
			case *ast.SendStmt:
				comm[s] = true
			case *ast.ExprStmt:
				if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					comm[u] = true
				}
			case *ast.AssignStmt:
				for _, rhs := range s.Rhs {
					if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						comm[u] = true
					}
				}
			}
		}
		return true
	})
	return comm
}

// selectHasDefault reports whether sel has a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if comm, ok := clause.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall classifies the well-known blocking calls of the standard
// library: synchronisation waits, HTTP round-trips and sleeps.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	switch {
	case methodOn(info, call, "sync", "WaitGroup", "Wait"):
		return "sync.WaitGroup.Wait", true
	case methodOn(info, call, "sync", "Cond", "Wait"):
		return "sync.Cond.Wait", true
	case methodOn(info, call, "net/http", "Client", "Do"),
		methodOn(info, call, "net/http", "Client", "Get"),
		methodOn(info, call, "net/http", "Client", "Post"),
		methodOn(info, call, "net/http", "Client", "PostForm"),
		methodOn(info, call, "net/http", "Client", "Head"):
		return "HTTP round-trip", true
	case pkgFuncCall(info, call, "net/http", "Get"),
		pkgFuncCall(info, call, "net/http", "Post"),
		pkgFuncCall(info, call, "net/http", "PostForm"),
		pkgFuncCall(info, call, "net/http", "Head"):
		return "HTTP round-trip", true
	case pkgFuncCall(info, call, "time", "Sleep"):
		return "time.Sleep", true
	}
	return "", false
}

// ownBody visits the statements of fn's declaration, skipping function
// literals: what a function does when called excludes closures, which may
// run on another goroutine.
func ownBody(fn *Function, visit func(ast.Node) bool) {
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}

// acceptsContext reports whether fn takes a context.Context parameter.
func acceptsContext(fn *Function) bool {
	sig, ok := fn.Obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if named, ok := sig.Params().At(i).Type().(*types.Named); ok && isObj(named.Obj(), "context", "Context") {
			return true
		}
	}
	return false
}

// pkgFuncCall reports whether call names pkgPath.name, resolved through
// the type info (not import aliases).
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false // a method of the package's types, e.g. http.Header.Get
	}
	return isObj(fn, pkgPath, name)
}

// methodOn reports whether call invokes method name on a value of the
// named type pkgPath.typeName (possibly behind a pointer).
func methodOn(info *types.Info, call *ast.CallExpr, pkgPath, typeName, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && isObj(named.Obj(), pkgPath, typeName)
}

// isObj reports whether obj is pkgPath.name.
func isObj(obj types.Object, pkgPath, name string) bool {
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
