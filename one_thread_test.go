package noftl

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneThreadOfControl guards what lets flash.Device, MemVolume, the
// buffer pool and every other simulated component go without locks: the
// kernel runs its processes as coroutines, one at a time, and nothing in
// the module starts a goroutine of its own. It parses every non-test Go
// file outside the separately-moduled benchmark and fails, naming
// file:line, on any go statement, and on a sync or sync/atomic import
// anywhere but internal/sim (where RealWaiter keeps its sync.Once).
func TestOneThreadOfControl(t *testing.T) {
	sim := filepath.Join("internal", "sim")
	walkGoFiles(t, func(fset *token.FileSet, path string, f *ast.File) {
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) {
			return
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); (p == "sync" || p == "sync/atomic") && filepath.Dir(path) != sim {
				t.Errorf("%s: imports %s; simulated state is one process's at a time and needs no lock", fset.Position(imp.Pos()), p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement; start a sim.Proc instead", fset.Position(g.Pos()))
			}
			return true
		})
	})
}
