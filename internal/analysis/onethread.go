package analysis

import (
	"go/ast"
	"strconv"
)

// OneThread guards what lets flash.Device, MemVolume, the buffer pool
// and every other simulated component go without locks: the kernel runs
// its processes as coroutines, one at a time, and nothing in the module
// starts a goroutine of its own. It flags a go statement, and a sync or
// sync/atomic import, in every non-test file outside the benchmark
// harness, the kernel's own package included.
var OneThread = &Analyzer{Name: "onethread", Run: runOneThread}

// harnessPath is the separately-moduled benchmark: it drives the library
// from outside, so the rules that govern how the library runs do not
// reach it.
const harnessPath = "noftl/benchmark"

func runOneThread(pass *Pass) {
	if pass.Path == harnessPath {
		return
	}
	for _, f := range pass.Files {
		if pass.isTestFile(f) {
			continue
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" || p == "sync/atomic" {
				pass.Reportf(imp.Pos(), "imports %s; simulated state is one process's at a time and needs no lock", p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "go statement; start a sim.Proc instead")
			}
			return true
		})
	}
}
