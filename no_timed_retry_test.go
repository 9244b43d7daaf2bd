package noftl

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestNoTimedRetry guards "every wait has an owner": a process that waits
// for another parks on a sim.WaitQueue that whoever changes the condition
// releases, instead of re-testing it on a tick. It parses every non-test
// Go file outside the kernel, the device model and the separately-moduled
// benchmark, and fails, naming file:line, on a Sleep(…) or a
// WaitUntil(x.Now() + …) inside a for or range body (a func literal
// starts afresh). The processes whose period is the point are allowed by
// function.
func TestNoTimedRetry(t *testing.T) {
	periodic := []string{
		"internal/bench/run.go:start",                  // the checkpointer's tick
		"internal/sched/workers.go:StartMaintenance",   // the wear-leveling sweep
		"internal/telemetry/telemetry.go:Start",        // the sampler
		"internal/workload/terminal.go:StartTerminals", // think time
	}
	exempt := []string{"benchmark/", "internal/sim/", "internal/nand/", "internal/flash/", "internal/blockdev/"}
	walkGoFiles(t, func(fset *token.FileSet, path string, f *ast.File) {
		path = filepath.ToSlash(path)
		if strings.HasSuffix(path, "_test.go") || slices.ContainsFunc(exempt, func(d string) bool { return strings.HasPrefix(path, d) }) {
			return
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil && !slices.Contains(periodic, path+":"+fn.Name.Name) {
				timedRetries(fn.Body, false, func(c *ast.CallExpr) {
					t.Errorf("%s: timed retry in a loop; park on a sim.WaitQueue its releaser wakes", fset.Position(c.Pos()))
				})
			}
		}
	})
}

// timedRetries reports each Sleep(…) and WaitUntil(x.Now() + …) call
// under n that runs inside a loop body.
func timedRetries(n ast.Node, inLoop bool, report func(*ast.CallExpr)) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.ForStmt:
			timedRetries(c.Body, true, report)
			return false
		case *ast.RangeStmt:
			timedRetries(c.Body, true, report)
			return false
		case *ast.FuncLit:
			timedRetries(c.Body, false, report)
			return false
		case *ast.CallExpr:
			if sel, ok := c.Fun.(*ast.SelectorExpr); ok && inLoop && (sel.Sel.Name == "Sleep" || sel.Sel.Name == "WaitUntil" && len(c.Args) == 1 && fromNow(c.Args[0])) {
				report(c)
			}
		}
		return true
	})
}

// fromNow reports whether e reads x.Now() + ….
func fromNow(e ast.Expr) bool {
	b, ok := e.(*ast.BinaryExpr)
	if !ok || b.Op != token.ADD {
		return false
	}
	call, ok := b.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Now"
}
