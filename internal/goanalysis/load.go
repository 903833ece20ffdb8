package goanalysis

// Stdlib-only package loading. The module's go.mod declares zero
// dependencies, and this package keeps it that way: no golang.org/x/tools
// loader, just go/parser + go/types with the source importer for the
// standard library and a recursive on-demand resolver for packages inside
// the module. Build-constrained files (coord's proc_unix.go/proc_other.go)
// are selected with go/build.Context.MatchFile, so the checked file set is
// exactly what `go build` would compile on this platform.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package of the loaded tree.
type Package struct {
	Path  string // import path ("repro/internal/eval"; bare dir name in golden trees)
	Name  string // package name ("eval")
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is a loaded source tree: the real repository (rooted at go.mod)
// or a golden testdata tree (no go.mod, bare-name import paths).
type Module struct {
	Root string // absolute root directory
	Path string // module path from go.mod; "" for golden trees
	Fset *token.FileSet
	Pkgs []*Package // the packages matched by the load patterns, sorted by path

	loaded []*Package // every package of the tree
	// tests holds the Test, Fuzz and Benchmark functions the tree's
	// _test.go files declare, each bare and qualified by package name.
	tests map[string]bool
}

// Rel renders pos with the filename relative to the module root (slash
// separated), so diagnostics are stable across checkouts.
func (m *Module) Rel(pos token.Position) token.Position {
	if rel, err := filepath.Rel(m.Root, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		pos.Filename = filepath.ToSlash(rel)
	}
	return pos
}

type loader struct {
	root    string
	modPath string
	fset    *token.FileSet
	ctxt    *build.Context
	std     types.Importer
	pkgs    map[string]*Package // loaded, by import path
	loading map[string]bool     // cycle detection
}

// LoadModule parses and type-checks every package under root and selects
// for analysis those matched by patterns ("./..." for every package;
// "dir/..." for a subtree; "dir" for one package — all relative to root).
// Unselected packages are loaded too, so the reference set the reach
// analyzer reads sees every caller; test files are never type-checked
// (the enforced invariants are about shipped code), only scanned for the
// test functions an oracle waiver may cite.
func LoadModule(root string, patterns []string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l := &loader{
		root:    abs,
		modPath: readModulePath(filepath.Join(abs, "go.mod")),
		fset:    token.NewFileSet(),
		ctxt:    &build.Default,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)

	dirs, tests, err := l.packageDirs()
	if err != nil {
		return nil, err
	}
	var selected, loaded []*Package
	for _, dir := range dirs {
		rel := l.relPath(dir)
		pkg, err := l.load(l.importPath(rel))
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, pkg)
		if matchPatterns(rel, patterns) {
			selected = append(selected, pkg)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("goanalysis: no packages match %v under %s", patterns, root)
	}
	sort.Slice(selected, func(i, j int) bool { return selected[i].Path < selected[j].Path })
	return &Module{Root: abs, Path: l.modPath, Fset: l.fset, Pkgs: selected, loaded: loaded, tests: tests}, nil
}

// readModulePath extracts the module path from a go.mod; "" if absent.
func readModulePath(path string) string {
	data, err := os.ReadFile(path)
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

// relPath is dir relative to the root, slash separated; "." for the root.
func (l *loader) relPath(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return dir
	}
	return filepath.ToSlash(rel)
}

// importPath maps a root-relative directory to its import path.
func (l *loader) importPath(rel string) string {
	switch {
	case rel == "." && l.modPath != "":
		return l.modPath
	case l.modPath != "":
		return l.modPath + "/" + rel
	default:
		return rel
	}
}

// dirFor inverts importPath.
func (l *loader) dirFor(path string) string {
	if l.modPath != "" {
		if path == l.modPath {
			return l.root
		}
		path = strings.TrimPrefix(path, l.modPath+"/")
	}
	return filepath.Join(l.root, filepath.FromSlash(path))
}

// local reports whether the import path belongs to the loaded tree.
func (l *loader) local(path string) bool {
	if l.modPath != "" {
		return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
	}
	// Golden trees have no module path: an import is local exactly when
	// the directory exists under the root (so "os" still reaches the
	// stdlib as long as no testdata package shadows it).
	fi, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(path)))
	return err == nil && fi.IsDir()
}

// packageDirs walks the tree and returns every directory holding at least
// one buildable non-test .go file, and the test functions every
// directory's _test.go files declare.
func (l *loader) packageDirs() ([]string, map[string]bool, error) {
	var dirs []string
	tests := map[string]bool{}
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := l.sourceFiles(path)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			dirs = append(dirs, path)
		}
		return testFuncs(path, tests)
	})
	sort.Strings(dirs)
	return dirs, tests, err
}

// testFuncs adds to into the Test, Fuzz and Benchmark functions the
// _test.go files of dir declare, bare and as pkg.Name, where an external
// test package's name drops its _test suffix.
func testFuncs(dir string, into map[string]bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && testFuncRe.MatchString(fd.Name.Name) {
				into[fd.Name.Name] = true
				into[pkg+"."+fd.Name.Name] = true
			}
		}
	}
	return nil
}

// sourceFiles lists the buildable non-test .go files of dir, sorted.
func (l *loader) sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := l.ctxt.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Join(dir, name), err)
		}
		if ok {
			files = append(files, name)
		}
	}
	sort.Strings(files)
	return files, nil
}

// load parses and type-checks one local package (and, recursively, its
// local dependencies). Results are memoized by import path.
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("goanalysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	names, err := l.sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("goanalysis: no buildable Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("goanalysis: %s: %w", path, err)
	}
	pkg := &Package{
		Path: path, Name: tpkg.Name(), Dir: dir,
		Files: files, Types: tpkg, Info: info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import makes the loader a types.Importer: module-local paths resolve
// through load, everything else through the stdlib source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if l.local(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// matchPatterns reports whether the root-relative directory rel is
// selected. Patterns: "./..." (everything), "dir/..." (subtree, inclusive
// of dir), "dir" (exact), with or without a leading "./".
func matchPatterns(rel string, patterns []string) bool {
	for _, p := range patterns {
		p = strings.TrimPrefix(filepath.ToSlash(p), "./")
		switch {
		case p == "..." || p == "":
			return true
		case strings.HasSuffix(p, "/..."):
			base := strings.TrimSuffix(p, "/...")
			if rel == base || strings.HasPrefix(rel, base+"/") {
				return true
			}
		case rel == p:
			return true
		}
	}
	return false
}
