package analysis

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
	"runtime"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of the enclosing module from
// source. It is module-aware for the module's own import paths
// (resolved relative to the go.mod directory) and resolves standard-
// library imports from GOROOT source, so it needs nothing beyond the
// standard library — the constraint the whole framework lives under.
//
// Imported packages are type-checked once (without their test files)
// and cached; target packages are additionally type-checked with their
// in-package test files, and external _test packages become their own
// load unit, exactly like the go tool's package model.
type Loader struct {
	// Fset positions every file the loader touches.
	Fset *token.FileSet
	// ModulePath and ModuleDir identify the enclosing module.
	ModulePath string
	ModuleDir  string

	ctx      build.Context
	sizes    types.Sizes
	std      types.ImporterFrom
	cache    map[string]*types.Package
	checking map[string]bool
}

// Package is one loaded-and-checked unit handed to analyzers.
type Package struct {
	// Path is the unit's import path ("_test"-suffixed for external
	// test packages).
	Path string
	// Dir is the directory the files came from.
	Dir string
	// Files is the parsed syntax, comments included.
	Files []*ast.File
	// Pkg and Info are the type-check results.
	Pkg  *types.Package
	Info *types.Info
}

// NewLoader builds a loader for the module containing dir (found by
// walking up to the nearest go.mod).
//
//noftl:ignore facade the suite's entry point: the root package's TestStaticInvariants is its user
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	// Cgo-gated files would need the cgo tool to type-check; every
	// package in this module (and the std subset it pulls in) has a
	// pure-Go configuration, so exclude them.
	ctx.CgoEnabled = false
	fset := token.NewFileSet()
	l := &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleDir:  modDir,
		ctx:        ctx,
		sizes:      types.SizesFor("gc", runtime.GOARCH),
		cache:      map[string]*types.Package{},
		checking:   map[string]bool{},
	}
	// The source importer resolves non-module imports (std) by parsing
	// GOROOT source; it shares l.Fset so every position is printable.
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// findModule walks up from dir to the nearest go.mod and reads its
// module path.
func findModule(dir string) (modDir, modPath string, err error) {
	for d := dir; ; {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Load expands the package patterns (a directory, or a "dir/..."
// wildcard, relative to base) and returns the type-checked units in
// deterministic path order. A package with in-package tests and an
// external _test package yields separate units for each.
func (l *Loader) Load(base string, patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(base, patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		pkgs, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkgs...)
	}
	return out, nil
}

// expand turns patterns into a sorted, deduplicated directory list.
// Directories named "testdata", hidden directories, and directories
// with no buildable Go files are skipped, matching the go tool.
func (l *Loader) expand(base string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(base, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if l.hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := filepath.Join(base, filepath.FromSlash(pat))
		if !l.hasGoFiles(dir) {
			return nil, fmt.Errorf("no buildable Go files in %s", dir)
		}
		add(dir)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func (l *Loader) hasGoFiles(dir string) bool {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return false
	}
	return len(bp.GoFiles)+len(bp.TestGoFiles)+len(bp.XTestGoFiles) > 0
}

// importPath maps a module directory to its import path.
func (l *Loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, l.ModulePath)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// loadDir type-checks one directory's units: the package with its
// in-package test files and, separately, its external _test package if
// one exists.
func (l *Loader) loadDir(dir string) ([]*Package, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	path, err := l.importPath(dir)
	if err != nil {
		return nil, err
	}
	var out []*Package
	files := append(append([]string(nil), bp.GoFiles...), bp.TestGoFiles...)
	if len(files) > 0 {
		pkg, err := l.check(path, dir, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
		// Let this directory's external _test package (and anything
		// else loaded later) import the test-inclusive view, the way
		// the go tool links test binaries.
		if _, ok := l.cache[path]; !ok {
			l.cache[path] = pkg.Pkg
		}
	}
	if len(bp.XTestGoFiles) > 0 {
		pkg, err := l.check(path+"_test", dir, bp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// check parses and type-checks one unit with the shared importer.
func (l *Loader) check(path, dir string, filenames []string) (*Package, error) {
	sort.Strings(filenames)
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
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
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Sizes:    l.sizes,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, _ := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for i, e := range errs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more errors", len(errs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("type-checking %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	return &Package{Path: path, Dir: dir, Files: files, Pkg: pkg, Info: info}, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleDir, 0)
}

// ImportFrom implements types.ImporterFrom: module-path imports are
// type-checked from the module tree (test files excluded, results
// cached), everything else is delegated to the GOROOT source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path != l.ModulePath && !strings.HasPrefix(path, l.ModulePath+"/") {
		return l.std.ImportFrom(path, srcDir, mode)
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	dir := filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")))
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	pkg, err := l.check(path, dir, append([]string(nil), bp.GoFiles...))
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg.Pkg
	return pkg.Pkg, nil
}
