package goanalysis

// reach: shipped code has a shipped caller. A package-level function or
// method that no non-test file of the module references is code only the
// tests keep alive, and an exported field that shipped code reads but
// never writes is a setting whose only shipped value is its zero. Either
// is deleted, made a constant, moved into a _test.go file, or — when tests
// use it as the reference the shipped path is checked against — waived as
// an oracle.
//
// References are collected once per run over every loaded package (see
// Refs), so a caller in another package, in a command, in an example or in
// the benchmark harness counts; a function's references to itself do not.

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// Reach flags functions, methods and fields with no shipped use.
func Reach() *Analyzer {
	return &Analyzer{
		Name:      "reach",
		Doc:       "function or method no shipped code references, or exported field shipped code reads but never writes",
		Directive: "oracle",
		Run:       runReach,
	}
}

func runReach(pass *Pass) {
	info, refs := pass.TypesInfo, pass.Refs
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := info.Defs[d.Name].(*types.Func)
				if fn != nil && !refs.reached(fn) {
					pass.Reportf(d.Name.Pos(), "%s is never referenced by shipped code", funcKey(pass.Pkg.Name(), d))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					st, ok := info.TypeOf(ts.Type).(*types.Struct)
					if !ok {
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						f := st.Field(i)
						if f.Exported() && refs.read[f] && !refs.written[f] && !codecWritten(st.Tag(i)) {
							pass.Reportf(f.Pos(), "field %s.%s is read but never written by shipped code", ts.Name.Name, f.Name())
						}
					}
				}
			}
		}
	}
}

// codecWritten reports whether a field tag hands the field to encoding/json,
// which writes it by reflection on decode.
func codecWritten(tag string) bool {
	_, ok := reflect.StructTag(tag).Lookup("json")
	return ok
}

// Refs is the module-wide reference set: what the non-test files of every
// loaded package refer to, built once per run and shared by every Pass.
type Refs struct {
	used    map[types.Object]bool
	read    map[*types.Var]bool
	written map[*types.Var]bool
	// ifaces indexes every interface type the module can see — those it
	// spells, those its packages and their imports declare, and error —
	// by method name, so a method that satisfies one counts as reached.
	ifaces map[string][]*types.Interface
}

// reached reports whether fn has a shipped use: a reference from outside
// its own body, a method that satisfies an interface, or an entry point.
func (r *Refs) reached(fn *types.Func) bool {
	if r.used[fn] || fn.Name() == "_" {
		return true
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Name() == "init" || fn.Name() == "main" && fn.Pkg().Name() == "main"
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); !ok || n.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range r.ifaces[fn.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// buildRefs walks every loaded package once.
func buildRefs(pkgs []*Package) *Refs {
	r := &Refs{
		used:    map[types.Object]bool{},
		read:    map[*types.Var]bool{},
		written: map[*types.Var]bool{},
		ifaces:  map[string][]*types.Interface{},
	}
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			r.ifaces[it.Method(i).Name()] = append(r.ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var addScope func(p *types.Package)
	addScope = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addScope(imp)
		}
	}
	for _, pkg := range pkgs {
		addScope(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pkg.Info.Defs[fd.Name]
				}
				r.walk(pkg.Info, decl, self)
			}
		}
	}
	return r
}

// walk records the references in one top-level declaration. References to
// self, the declared function, are skipped: recursion is not a caller.
func (r *Refs) walk(info *types.Info, decl ast.Decl, self types.Object) {
	writes := map[*ast.Ident]bool{}
	// fieldSel finds the field an lvalue writes: x.F, or x.F[i]…, since
	// an element store needs the field set (a slice or map) or writes it
	// (an array).
	fieldSel := func(e ast.Expr) *ast.Ident {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				return x.Sel
			case *ast.IndexExpr:
				e = x.X
			default:
				return nil
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			r.compositeWrites(info, n, writes)
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id := fieldSel(lhs); id != nil {
					writes[id] = true
				}
			}
		case *ast.IncDecStmt:
			if id := fieldSel(n.X); id != nil {
				writes[id] = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id := fieldSel(n.X); id != nil {
					writes[id] = true
				}
			}
		case *ast.Ident:
			obj := info.Uses[n]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				if o.IsField() {
					if f := o.Origin(); writes[n] {
						r.written[f] = true
					} else {
						r.read[f] = true
					}
					return true
				}
			}
			if obj != nil && obj != self {
				r.used[obj] = true
			}
		}
		return true
	})
}

// compositeWrites marks the fields a struct literal sets: its keys, or
// every field when the literal is positional. An elided inner literal
// ({…} in map[K]*T{k: {…}}) is typed like any other, as *T when the
// element type is a pointer, so it counts too.
func (r *Refs) compositeWrites(info *types.Info, lit *ast.CompositeLit, writes map[*ast.Ident]bool) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				writes[id] = true
			}
		} else if i < st.NumFields() {
			r.written[st.Field(i).Origin()] = true
		}
	}
}
