package lint

import (
	"go/ast"
	"go/types"
)

// calleePkgFunc resolves a call of the form pkg.Func to the package's
// import path and the function name; any other call shape yields "", "".
func (p *Pass) calleePkgFunc(call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := p.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	if _, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func); !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}

// callee resolves the static *types.Func a call targets (package function
// or method); calls through function-typed values yield nil.
func (p *Pass) callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

var errType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is exactly the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errType)
}
