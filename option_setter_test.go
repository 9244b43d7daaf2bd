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
	fset := token.NewFileSet()
	type field struct{ owner, name, file string }
	var fields []field
	setIn := map[string]map[string]bool{} // field name -> files setting it
	note := func(name, file string) {
		if setIn[name] == nil {
			setIn[name] = map[string]bool{}
		}
		setIn[name][file] = true
	}
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
}
