package noftl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
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

// TestEveryOptionHasASetter is the ratchet behind "no option without a
// setter": every exported field of a configuration struct under
// internal/ must be set — a keyed literal element `Field:` or an
// assignment `.Field =` — by some Go file other than the one declaring
// it (tests, examples, commands and the benchmark module all count). A
// field nothing sets is a constant that costs a field, a doc block and a
// configuration nobody has run: make it one.
//
// Matching is by field name only (no type checker), so a name that two
// structs share and one of them sets hides the other's unset twin; the
// test under-reports, which is an acceptable floor for a ratchet.
func TestEveryOptionHasASetter(t *testing.T) {
	configName := regexp.MustCompile(`(Config|Options|Spec)$|^Params$|^Layout$`)
	type field struct{ owner, name, file string }
	var fields []field
	setIn := map[string]map[string]bool{} // field name -> files setting it
	note := func(name, file string) {
		if setIn[name] == nil {
			setIn[name] = map[string]bool{}
		}
		setIn[name][file] = true
	}
	walkGoFiles(t, func(_ *token.FileSet, path string, f *ast.File) {
		internal := strings.HasPrefix(path, "internal"+string(filepath.Separator)) &&
			!strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || !internal || !n.Name.IsExported() || !configName.MatchString(n.Name.Name) {
					break
				}
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						if name.IsExported() {
							fields = append(fields, field{f.Name.Name + "." + n.Name.Name, name.Name, path})
						}
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok {
					note(key.Name, path)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						note(sel.Sel.Name, path)
					}
				}
			}
			return true
		})
	})
	var unset []string
	for _, fl := range fields {
		setters := setIn[fl.name]
		if len(setters) == 0 || len(setters) == 1 && setters[fl.file] {
			unset = append(unset, fl.owner+"."+fl.name)
		}
	}
	if len(unset) > 0 {
		sort.Strings(unset)
		t.Fatalf("%d of %d config fields are set by no file other than their declaring one "+
			"(make each an unexported constant beside its use):\n  %s",
			len(unset), len(fields), strings.Join(unset, "\n  "))
	}
	t.Logf("%d config fields, each set outside its declaring file", len(fields))
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
