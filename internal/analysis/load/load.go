// Package load parses and type-checks packages of this module for the
// analysis framework, using only the standard library. Module-internal
// imports are resolved by mapping import paths under the module path to
// directories; standard-library imports go through the compiler's
// export data (go/importer). The loader deliberately understands just
// enough of the go tool's layout for this repository: no cgo, no build
// tags, no vendoring, no external module dependencies.
package load

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
	"strings"

	"kjoin/internal/analysis"
)

// Loader loads and caches type-checked packages of one module.
type Loader struct {
	Fset       *token.FileSet
	moduleDir  string
	modulePath string
	std        types.Importer
	pkgs       map[string]*analysis.Package // by import path
	order      []*analysis.Package          // completion order: deps before dependents
	loading    map[string]bool              // cycle detection
	// IncludeTests, when set, adds _test.go files of the package itself
	// (not external _test packages) to the loaded files.
	IncludeTests bool
}

// NewLoader returns a loader for the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:       token.NewFileSet(),
		moduleDir:  root,
		modulePath: modPath,
		std:        importer.Default(),
		pkgs:       make(map[string]*analysis.Package),
		loading:    make(map[string]bool),
	}, nil
}

// ModulePath returns the module path from go.mod.
func (l *Loader) ModulePath() string { return l.modulePath }

// All returns every package this loader has type-checked, in completion
// order: a package's module-internal imports always precede it. This is
// the dependency order the analysis facts layer relies on — analyzing
// packages in this order guarantees facts about imported objects exist
// before any importer is analyzed.
func (l *Loader) All() []*analysis.Package {
	out := make([]*analysis.Package, len(l.order))
	copy(out, l.order)
	return out
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (string, string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		gm := filepath.Join(d, "go.mod")
		if data, err := os.ReadFile(gm); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("load: %s has no module directive", gm)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("load: no go.mod above %s", dir)
		}
		d = parent
	}
}

// Load resolves the patterns (directory paths, optionally ending in
// /... for a recursive walk, relative to the module root) and returns
// the type-checked packages in deterministic order. Directories without
// buildable Go files are skipped.
func (l *Loader) Load(patterns ...string) ([]*analysis.Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Join(l.moduleDir, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				// Like the go tool, ... stops at a nested module (bench/):
				// its packages belong to another import path.
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != l.moduleDir {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			add(filepath.Join(l.moduleDir, filepath.FromSlash(pat)))
		}
	}
	sort.Strings(dirs)
	var out []*analysis.Package
	for _, d := range dirs {
		rel, err := filepath.Rel(l.moduleDir, d)
		if err != nil {
			return nil, err
		}
		ip := l.modulePath
		if rel != "." {
			ip = l.modulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.importPath(ip)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir type-checks the single package in dir (which may live outside
// the module tree, e.g. an analyzer's testdata) under the given import
// path. Imports beneath the module path resolve into the module.
func (l *Loader) LoadDir(dir, importPath string) (*analysis.Package, error) {
	return l.load(dir, importPath)
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if isBuildableGoFile(e, false) {
			return true
		}
	}
	return false
}

func isBuildableGoFile(e os.DirEntry, includeTests bool) bool {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") {
		return false
	}
	if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
		return false
	}
	if !includeTests && strings.HasSuffix(name, "_test.go") {
		return false
	}
	return true
}

// importPath returns the package for an import path, loading it (and
// its module-internal dependencies) on first use.
func (l *Loader) importPath(path string) (*analysis.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("load: import %q is outside module %s", path, l.modulePath)
	}
	return l.load(dir, path)
}

func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.modulePath {
		return l.moduleDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
		return filepath.Join(l.moduleDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

func (l *Loader) load(dir, importPath string) (*analysis.Package, error) {
	if l.loading[importPath] {
		return nil, fmt.Errorf("load: import cycle through %q", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range ents {
		if isBuildableGoFile(e, l.IncludeTests) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if p == "unsafe" {
				return types.Unsafe, nil
			}
			if _, in := l.dirFor(p); in {
				pkg, err := l.importPath(p)
				if err != nil {
					return nil, err
				}
				return pkg.Types, nil
			}
			return l.std.Import(p)
		}),
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %v", importPath, err)
	}
	p := &analysis.Package{
		Path:      importPath,
		Dir:       dir,
		Fset:      l.Fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}
	// Module-internal dependencies were loaded (recursively) by the
	// importer during Check, so they are all in l.pkgs by now.
	depSeen := make(map[string]bool)
	for _, f := range files {
		for _, spec := range f.Imports {
			ip := strings.Trim(spec.Path.Value, `"`)
			if dep, ok := l.pkgs[ip]; ok && !depSeen[ip] {
				depSeen[ip] = true
				p.Imports = append(p.Imports, dep)
			}
		}
	}
	l.pkgs[importPath] = p
	l.order = append(l.order, p)
	return p, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
