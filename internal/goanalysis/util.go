package goanalysis

// Type-resolution helpers shared by the analyzers. Project types are
// matched by (package name, type name) rather than full import path so
// the golden corpora under testdata/src can provide structural lookalikes
// (a package named "eval" with a CellStats, etc.); within this module the
// output-bearing package names are unique, so the match is exact in the
// tree that matters.

import (
	"go/ast"
	"go/types"
)

// outputBearing is the package set whose bytes land in paper artifacts:
// a nondeterminism or durability bug in any of them shifts a rendered
// table. corpus joins for maporder only (its document order feeds the
// tokenizer and LM training streams); remote joins because its samples
// flow straight into CellStats — its transport clock lives behind the
// allow-listed seam; store joins because its segments replay into
// rendered tables, so a durability or ordering bug there resurfaces as
// a shifted artifact on the next warm run; verdict joins because every
// Compiled and Passed count in a table is one of its verdicts, and its
// process-wide memo must answer a repeat exactly as the first
// evaluation did.
var outputBearing = []string{
	"wire", "eval", "verdict", "harness", "core", "coord", "gen", "model", "ngram", "bpe", "remote", "store",
}

// calleeFunc resolves the called function or method, nil for indirect
// calls, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPkgFunc reports whether fn is a package-level function of the package
// with the given import path, named one of names (any name if empty).
func isPkgFunc(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// isMethodOn reports whether fn is the named method on the named type of
// a package with the given name (pointer or value receiver).
func isMethodOn(fn *types.Func, pkgName, typeName, method string) bool {
	if fn == nil || fn.Name() != method {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), pkgName, typeName)
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkgName.typeName.
func isNamed(t types.Type, pkgName, typeName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// isMapExpr reports whether the expression's type is a map.
func isMapExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// funcKey names a declared function for allow-lists: "pkg.Func" or
// "pkg.Recv.Method" with any pointer receiver stripped.
func funcKey(pkgName string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkgName + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	recv := ""
	switch rt := t.(type) {
	case *ast.Ident:
		recv = rt.Name
	case *ast.IndexExpr: // generic receiver
		if id, ok := rt.X.(*ast.Ident); ok {
			recv = id.Name
		}
	}
	return pkgName + "." + recv + "." + fd.Name.Name
}

// eachFuncDecl invokes f for every function declaration with a body.
func eachFuncDecl(files []*ast.File, f func(*ast.FuncDecl)) {
	for _, file := range files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				f(fd)
			}
		}
	}
}
