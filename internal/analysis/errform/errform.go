// Package errform keeps HTTP error responses structured. The service's
// contract is that invalid input surfaces as *core.InputError and is
// mapped to the structured 400 JSON body by serverutil.Fail, the one
// error mapper every tier (shard server, replica, coordinator) answers
// failures through; dumping err.Error() straight into a response both
// leaks internals and silently bypasses that mapping. The analyzer
// checks every function that takes an http.ResponseWriter:
//
//   - calls to http.Error are always flagged — the structured path is
//     serverutil.WriteError (or serverutil.Fail for an error value);
//   - stringifying an error (err.Error()) is only allowed in functions
//     that first classify the error with errors.As or errors.Is — the
//     shape of serverutil.Fail. A handler that stringifies an
//     unclassified error would send input errors down the 500 path.
package errform

import (
	"go/ast"
	"go/types"

	"kjoin/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "errform",
	Doc:  "HTTP handlers must route errors through the structured JSON path, not err.Error() into the body",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasResponseWriterParam(pass, fn) {
				continue
			}
			checkHandler(pass, fn)
		}
	}
	return nil
}

func hasResponseWriterParam(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, p := range fn.Type.Params.List {
		t := pass.TypeOf(p.Type)
		n, ok := t.(*types.Named)
		if !ok {
			continue
		}
		obj := n.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "ResponseWriter" {
			return true
		}
	}
	return false
}

func checkHandler(pass *analysis.Pass, fn *ast.FuncDecl) {
	classifies := classifiesErrors(pass, fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if isPkgFunc(pass, sel, "net/http", "Error") {
			pass.Reportf(call.Pos(), "http.Error writes a plain-text body; use the structured JSON error path (serverutil.WriteError, or serverutil.Fail for an error value)")
			return true
		}
		if sel.Sel.Name == "Error" && len(call.Args) == 0 && isErrorValue(pass, sel.X) && !classifies {
			pass.Reportf(call.Pos(), "err.Error() in HTTP handler %s without errors.As/errors.Is classification; route through serverutil.Fail so invalid input gets the structured 400", fn.Name.Name)
		}
		return true
	})
}

// classifiesErrors reports whether the body calls errors.As or
// errors.Is — the marker of an error-mapping function that has peeled
// typed errors (in particular *core.InputError) before stringifying the
// remainder.
func classifiesErrors(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if isPkgFunc(pass, sel, "errors", "As") || isPkgFunc(pass, sel, "errors", "Is") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isPkgFunc(pass *analysis.Pass, sel *ast.SelectorExpr, pkgPath, name string) bool {
	if sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// isErrorValue reports whether e's type is (or implements) the error
// interface — i.e. e.Error() stringifies an error, as opposed to an
// unrelated method that happens to be named Error.
func isErrorValue(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errType) || types.Implements(types.NewPointer(t), errType)
}
