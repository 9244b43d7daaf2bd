package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Setter is the ratchet behind "every setting has a caller": every
// exported field of an exported configuration struct (named *Config,
// *Options, *Spec or Params) must be set — a keyed literal
// element `Field:` or an assignment `x.Field =` — by some non-test file
// of the module other than the one declaring it. Experiments, commands,
// examples and the benchmark count; tests do not. A field no caller sets
// is a factor no run varies: make it an unexported constant beside its
// use. Only workload or run scale (tests shrink it to stay fast) and
// fault injection (only tests provoke the fault) may stay unset, each
// with a //noftl:ignore at the field.
//
// Each setter is resolved by the type checker to the field it names, so
// two structs that share a field name are told apart. Fields are keyed
// by their declaration's position, because the loader type-checks a
// package once as an import and again with its tests.
var Setter = &Analyzer{Name: "setter", Run: runSetter}

var configName = regexp.MustCompile(`(Config|Options|Spec)$|^Params$`)

func runSetter(pass *Pass) {
	var set map[token.Position]bool
	for _, f := range pass.Files {
		if pass.isTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() || !configName.MatchString(ts.Name.Name) {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			if set == nil {
				set = fieldSetters(pass)
			}
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					if name.IsExported() && !set[pass.Fset.Position(name.Pos())] {
						pass.Reportf(name.Pos(), "%s.%s is set by no non-test file other than its declaring one; "+
							"make it an unexported constant beside its use", ts.Name.Name, name.Name)
					}
				}
			}
			return true
		})
	}
}

// fieldSetters returns the declaration positions of the struct fields
// that a non-test file of the module, other than the declaring one,
// sets by keyed literal element or by assignment.
func fieldSetters(pass *Pass) map[token.Position]bool {
	set := map[token.Position]bool{}
	for _, p := range pass.Module {
		for _, f := range p.Files {
			if pass.isTestFile(f) {
				continue
			}
			file := pass.Fset.File(f.Pos()).Name()
			note := func(id *ast.Ident) {
				if v, ok := p.Info.Uses[id].(*types.Var); ok && v.IsField() {
					if decl := pass.Fset.Position(v.Pos()); decl.Filename != file {
						set[decl] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						note(key)
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							note(sel.Sel)
						}
					}
				}
				return true
			})
		}
	}
	return set
}
