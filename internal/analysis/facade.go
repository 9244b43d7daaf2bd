package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Facade holds the public package to its contract. The facade is the
// package that re-exports its internal/ tree for code that cannot import
// it (the module's root package). Every exported top-level name it
// declares in a non-test file
//
//   - carries a doc comment, its own or its declaration group's;
//   - has a user: a Go file outside the package selects it as
//     `pkg.Name` (examples, commands, the benchmark, the package's
//     external tests), or it occurs in the signature of an exported
//     function that is so selected. An alias nothing outside selects is
//     surface with no one standing on it: delete it, or land its user
//     (an example that is poorer without it) in the same change.
var Facade = &Analyzer{Name: "facade", Run: runFacade}

func runFacade(pass *Pass) {
	if !isFacade(pass) {
		return
	}
	type name struct {
		id  *ast.Ident
		sig *ast.FuncType // nil for types and values
	}
	var names []name
	declare := func(id *ast.Ident, sig *ast.FuncType, documented bool) {
		if !id.IsExported() {
			return
		}
		names = append(names, name{id, sig})
		if !documented {
			pass.Reportf(id.Pos(), "exported %s has no doc comment", id.Name)
		}
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name, d.Type, d.Doc != nil)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name, nil, d.Doc != nil || s.Doc != nil || s.Comment != nil)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declare(n, nil, d.Doc != nil || s.Doc != nil || s.Comment != nil)
						}
					}
				}
			}
		}
	}
	used := qualifiedUses(pass)
	// A used function keeps the names its signature mentions (selectors
	// there name other packages and are not followed). One pass is the
	// closure: what a signature mentions are types, and the facade's
	// types are aliases with no signature of their own.
	kept := map[string]bool{}
	for _, n := range names {
		if n.sig != nil && used[pass.Fset.Position(n.id.Pos())] {
			ast.Inspect(n.sig, func(node ast.Node) bool {
				switch node := node.(type) {
				case *ast.SelectorExpr:
					return false
				case *ast.Ident:
					kept[node.Name] = true
				}
				return true
			})
		}
	}
	for _, n := range names {
		if !used[pass.Fset.Position(n.id.Pos())] && !kept[n.id.Name] {
			pass.Reportf(n.id.Pos(), "exported %s has no user outside the package; delete it, or use it in an example", n.id.Name)
		}
	}
}

// isFacade reports whether the pass is a package (not an external test)
// with units of the load under its internal/ tree.
func isFacade(pass *Pass) bool {
	for _, p := range pass.Module {
		if strings.HasPrefix(p.Path, pass.Path+"/internal/") {
			return true
		}
	}
	return false
}

// qualifiedUses returns the declaration positions of every name some
// file of the load selects through a package qualifier (`pkg.Name`).
func qualifiedUses(pass *Pass) map[token.Position]bool {
	used := map[token.Position]bool{}
	for _, p := range pass.Module {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok {
						if _, ok := p.Info.Uses[x].(*types.PkgName); ok && p.Info.Uses[sel.Sel] != nil {
							used[pass.Fset.Position(p.Info.Uses[sel.Sel].Pos())] = true
						}
					}
				}
				return true
			})
		}
	}
	return used
}
