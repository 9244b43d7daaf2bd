package noftl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"noftl/internal/analysis"
)

// walkGoFiles parses every Go file under the module root (dot
// directories and the analyzers' testdata aside) and hands it to fn with
// the file set its positions resolve in.
func walkGoFiles(t *testing.T, fn func(fset *token.FileSet, path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." ||
				path == filepath.Join("internal", "analysis", "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(fset, path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The two reasons a configuration field may stay with no non-test setter.
const (
	scaleOnly = "workload or run scale: tests shrink it to stay fast"
	faultOnly = "fault injection: only tests provoke the fault"
)

// unsetOptions are the configuration fields that may stay with no
// non-test setter, each with its reason. The list can only shrink: a
// listed field that is deleted, or that gains a non-test setter, fails
// TestEveryOptionHasASetter.
var unsetOptions = map[string]string{
	"bench.Fig3Config.TPCB":                        scaleOnly,
	"bench.Fig3Config.TPCC":                        scaleOnly,
	"bench.Fig3Config.TPCE":                        scaleOnly,
	"bench.Fig3Config.Transactions":                scaleOnly,
	"bench.Fig4Config.TPCC":                        scaleOnly,
	"bench.QoSConfig.TPCB":                         scaleOnly,
	"bench.SweepConfig.TPCB":                       scaleOnly,
	"bench.SweepConfig.TPCC":                       scaleOnly,
	"bench.LatencyConfig.Dies":                     scaleOnly,
	"bench.LatencyConfig.DriveMB":                  scaleOnly,
	"bench.LatencyConfig.Ops":                      scaleOnly,
	"bench.ValidateConfig.Ops":                     scaleOnly,
	"workload.TPCCConfig.CustomersPerDistrict":     scaleOnly,
	"workload.TPCCConfig.InitialOrdersPerDistrict": scaleOnly,
	"workload.TPCCConfig.Items":                    scaleOnly,
	"workload.TPCEConfig.Securities":               scaleOnly,
	"bench.HTAPConfig.Modes":                       scaleOnly + " (one row)",
	"bench.SchedConfig.Modes":                      scaleOnly + " (one row)",
	"nand.Options.EraseFailProb":                   faultOnly,
	"nand.Options.Endurance":                       faultOnly,
}

// TestEveryOptionHasASetter is the ratchet behind "every setting has a
// caller": every exported field of a configuration struct under
// internal/ must be set — a keyed literal element `Field:` or an
// assignment `x.Field =` — by some non-test Go file other than the one
// declaring it (experiments, commands, examples and the benchmark module
// count; tests do not), unless unsetOptions lists it with its reason. A
// field no caller sets is a factor no run varies: make it an unexported
// constant beside its use.
//
// Each setter is resolved by the type checker to the field it names, so
// two structs that share a field name are told apart. Fields are keyed by
// their declaration's position, because the loader type-checks a package
// once as an import and again with its tests.
func TestEveryOptionHasASetter(t *testing.T) {
	l, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(l.ModuleDir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	configName := regexp.MustCompile(`(Config|Options|Spec)$|^Params$|^Layout$`)
	internal := filepath.Join(l.ModuleDir, "internal") + string(filepath.Separator)
	fields := map[token.Position]string{} // declaration -> pkg.Type.Field
	declared := map[string]bool{}         // pkg.Type.Field
	set := map[token.Position]bool{}      // declaration -> set by another non-test file
	for _, p := range pkgs {
		for _, f := range p.Files {
			file := l.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			note := func(id *ast.Ident) {
				if v, ok := p.Info.Uses[id].(*types.Var); ok && v.IsField() {
					if decl := l.Fset.Position(v.Pos()); decl.Filename != file {
						set[decl] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok || !strings.HasPrefix(file, internal) || !n.Name.IsExported() || !configName.MatchString(n.Name.Name) {
						break
					}
					for _, fl := range st.Fields.List {
						for _, name := range fl.Names {
							if name.IsExported() {
								full := p.Pkg.Name() + "." + n.Name.Name + "." + name.Name
								fields[l.Fset.Position(name.Pos())], declared[full] = full, true
							}
						}
					}
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
	for name := range unsetOptions {
		if !declared[name] {
			t.Errorf("%s is no longer a config field: drop it from unsetOptions", name)
		}
	}
	var unset []string
	for decl, name := range fields {
		_, listed := unsetOptions[name]
		switch {
		case listed && set[decl]:
			t.Errorf("%s has a non-test setter now: drop it from unsetOptions", name)
		case !listed && !set[decl]:
			unset = append(unset, name)
		}
	}
	if len(unset) > 0 {
		sort.Strings(unset)
		t.Fatalf("%d of %d config fields are set by no non-test file other than their declaring one "+
			"(make each an unexported constant beside its use):\n  %s",
			len(unset), len(fields), strings.Join(unset, "\n  "))
	}
	t.Logf("%d config fields, each set by a non-test caller or one of the %d in unsetOptions", len(fields), len(unsetOptions))
}

// TestEveryFacadeNameHasAUser is the same ratchet for the facade: every
// exported top-level name of this package must be selected as
// `noftl.Name` by a Go file outside the package (examples, commands,
// the external tests here) or occur in the signature of an exported
// function that is. The facade re-exports internal packages for code
// that cannot import them; an alias nothing outside selects is surface
// with no one standing on it. Give a new name a user — an example that
// is poorer without it — in the change that adds it.
func TestEveryFacadeNameHasAUser(t *testing.T) {
	sigs := map[string]ast.Node{} // exported name -> its signature (nil for values and aliases)
	used := map[string]bool{}
	walkGoFiles(t, func(_ *token.FileSet, path string, f *ast.File) {
		if filepath.Dir(path) == "." && f.Name.Name == "noftl" {
			if strings.HasSuffix(path, "_test.go") {
				return
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						sigs[d.Name.Name] = d.Type
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								sigs[s.Name.Name] = nil
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									sigs[n.Name] = nil
								}
							}
						}
					}
				}
			}
			return
		}
		local := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"noftl"` {
				local = "noftl"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	})
	// A used function keeps the facade names its signature mentions
	// (selectors there name other packages and are not followed). One
	// pass is the closure: what a signature mentions are types, and the
	// facade's types are aliases with no signature of their own.
	kept := map[string]bool{}
	for name := range used {
		if sigs[name] == nil {
			continue
		}
		ast.Inspect(sigs[name], func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false
			case *ast.Ident:
				kept[n.Name] = true
			}
			return true
		})
	}
	var unused []string
	for name := range sigs {
		if !used[name] && !kept[name] {
			unused = append(unused, name)
		}
	}
	if len(unused) > 0 {
		sort.Strings(unused)
		t.Fatalf("%d of %d exported facade names have no user outside the package "+
			"(delete each, or use it in an example):\n  %s",
			len(unused), len(sigs), strings.Join(unused, "\n  "))
	}
	t.Logf("%d exported facade names, each with a user", len(sigs))
}
