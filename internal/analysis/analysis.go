// Package analysis is noftlvet's stdlib-only static-analysis framework:
// a source loader (go/parser + go/types, no golang.org/x/tools — the
// module has zero external dependencies and must stay that way), a
// small analyzer API, and a driver that runs every analyzer over a set
// of packages, applies //noftl:ignore suppression comments, and emits
// deterministic "file:line: analyzer: message" diagnostics.
//
// The analyzers encode the repo's cross-layer invariants — the rules
// each PR established and runtime tests only catch when they happen to
// exercise the violating path. See the individual analyzer files
// (determinism.go, ioreqclass.go, nilrecv.go, metricname.go) for the
// invariant each one enforces, and
// DESIGN.md "Static invariants" for the PR that introduced each one.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //noftl:ignore comments.
	Name string
	// Doc is the one-line description printed by noftlvet -list.
	Doc string
	// Run inspects one package pass and reports findings on it.
	Run func(*Pass)
}

// All returns the full analyzer suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		IOReqClass,
		NilRecv,
		MetricName,
	}
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the check this pass runs.
	Analyzer *Analyzer
	// Fset positions every node of every loaded file.
	Fset *token.FileSet
	// Path is the package's import path (test variants of a package
	// keep the package's own path; external _test packages get the
	// "path_test" suffix the go tool uses).
	Path string
	// Files is the package's syntax, parsed with comments.
	Files []*ast.File
	// Pkg and Info are the go/types results for Files.
	Pkg  *types.Package
	Info *types.Info

	diags *[]Diagnostic
}

// BasePath is the pass's import path with any external-test "_test"
// suffix stripped: the path analyzers should scope and allowlist by,
// so a package's own tests live under its rules.
func (p *Pass) BasePath() string {
	return strings.TrimSuffix(p.Path, "_test")
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Inspect walks every file of the pass in depth-first order, calling fn
// the way ast.Inspect does.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// Callee resolves a call expression to the *types.Func it invokes
// (package-level function or method), or nil for calls through
// function values, built-ins, and conversions.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// NamedType unwraps pointers and aliases down to the *types.Named
// behind t, or nil.
func NamedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// IsNamed reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	n := NamedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding (Filename and Line are the contract;
	// Column is informational).
	Pos token.Position
	// Analyzer names the check that produced the finding ("ignore" for
	// malformed suppression comments, which the driver itself emits).
	Analyzer string
	// Message describes the violated invariant.
	Message string
}

// String renders the diagnostic in the "file:line: analyzer: message"
// format noftlvet prints.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// sortDiagnostics orders findings by file, line, analyzer, message so
// output is deterministic across runs.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
