package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Facade is the ratchet behind "a name exists only while something uses
// it". The facade is the package that re-exports its internal/ tree for
// code that cannot import it (the module's root package). Every exported
// top-level name it declares in a non-test file
//
//   - carries a doc comment, its own or its declaration group's;
//   - has a user: a Go file outside the package selects it as
//     `pkg.Name` (examples, commands, the benchmark, the package's
//     external tests), or it occurs in the signature of an exported
//     function that is so selected. An alias nothing outside selects is
//     surface with no one standing on it: delete it, or land its user
//     (an example that is poorer without it) in the same change.
//
// Under its internal/ tree, every exported top-level name and exported
// method of a non-test file has a non-test user: a non-test file of the
// load uses it (its own package, commands, examples and the benchmark
// count; tests do not), or the method implements a method of a named
// interface its receiver type satisfies (the load's, the standard
// library's, error). A name only tests use is API kept for its tests:
// delete it, and let the tests reach the unexported state behind it.
var Facade = &Analyzer{Name: "facade", Run: runFacade}

func runFacade(pass *Pass) {
	var root, internal bool
	for _, p := range pass.Module {
		root = root || strings.HasPrefix(p.Path, pass.Path+"/internal/")
		internal = internal || strings.HasPrefix(pass.Path, p.Path+"/internal/")
	}
	if !root && !internal {
		return
	}
	type name struct {
		id   *ast.Ident
		sig  *ast.FuncType  // nil for types and values
		recv *ast.FieldList // nil but for methods
	}
	var names []name
	declare := func(id *ast.Ident, sig *ast.FuncType, recv *ast.FieldList, documented bool) {
		if !id.IsExported() {
			return
		}
		names = append(names, name{id, sig, recv})
		if !internal && !documented {
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
				if d.Recv == nil || internal {
					declare(d.Name, d.Type, d.Recv, d.Doc != nil)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name, nil, nil, d.Doc != nil || s.Doc != nil || s.Comment != nil)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declare(n, nil, nil, d.Doc != nil || s.Doc != nil || s.Comment != nil)
						}
					}
				}
			}
		}
	}
	uses := pass.uses
	used := func(id *ast.Ident, k useKind) bool { return uses.kinds[pass.Fset.Position(id.Pos())]&k != 0 }
	for _, n := range names {
		if !internal || used(n.id, usedByCode) {
			continue
		}
		what := n.id.Name
		if n.recv != nil {
			recv := pass.Info.TypeOf(n.recv.List[0].Type)
			if uses.implemented(recv, what) {
				continue
			}
			what = NamedType(recv).Obj().Name() + "." + what
		}
		pass.Reportf(n.id.Pos(), "exported %s has no non-test user; delete it, or land its caller in the same change", what)
	}
	if internal {
		return
	}
	// A used function keeps the names its signature mentions (selectors
	// there name other packages and are not followed). One pass is the
	// closure: what a signature mentions are types, and the facade's
	// types are aliases with no signature of their own.
	kept := map[string]bool{}
	for _, n := range names {
		if n.sig != nil && used(n.id, usedOutside) {
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
		if !used(n.id, usedOutside) && !kept[n.id.Name] {
			pass.Reportf(n.id.Pos(), "exported %s has no user outside the package; delete it, or use it in an example", n.id.Name)
		}
	}
}

// useIndex is what the facade rule knows of one load: how each
// declaration is used, keyed by its position (the loader type-checks a
// package once as an import and again with its tests, so a declaration
// has two objects), and every interface a method may implement.
type useIndex struct {
	kinds  map[token.Position]useKind
	ifaces []*types.Interface
}

type useKind uint8

const (
	usedByCode  useKind = 1 << iota // by a non-test file, its own package's included
	usedOutside                     // by a file of another package, tests included
)

// buildUseIndex reads Info.Uses of every unit of the load, and the
// named interfaces of every package it reaches but those tests declare.
// A declaration's uses of itself (recursion, a method's receiver) count.
func buildUseIndex(fset *token.FileSet, units []*Package) *useIndex {
	isTest := func(pos token.Pos) bool {
		f := fset.File(pos) // nil for the universe's and unsafe's names
		return f != nil && strings.HasSuffix(f.Name(), "_test.go")
	}
	kinds := map[types.Object]useKind{}
	u := &useIndex{kinds: map[token.Position]useKind{},
		ifaces: []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok && !isTest(tn.Pos()) && !isGeneric(tn.Type()) {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
					u.ifaces = append(u.ifaces, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range units {
		visit(p.Pkg)
		for id, obj := range p.Info.Uses {
			if obj.Pkg() == nil {
				continue
			}
			var k useKind
			if !isTest(id.Pos()) {
				k = usedByCode
			}
			if obj.Pkg().Path() != p.Pkg.Path() {
				k |= usedOutside
			}
			kinds[obj] |= k
		}
	}
	for obj, k := range kinds {
		u.kinds[fset.Position(obj.Pos())] |= k
	}
	return u
}

// implemented reports whether recv's method name implements a method of
// an interface that recv or *recv satisfies.
func (u *useIndex) implemented(recv types.Type, name string) bool {
	if isGeneric(recv) {
		return false
	}
	ptr := types.NewPointer(NamedType(recv))
	for _, it := range u.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

// isGeneric reports whether t is a named type with type parameters,
// which Implements cannot judge uninstantiated.
func isGeneric(t types.Type) bool {
	n := NamedType(t)
	return n != nil && n.TypeParams().Len() > 0
}
