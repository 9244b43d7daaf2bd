package analysis

import (
	"go/ast"
	"go/token"
)

// TimedRetry guards "every wait has an owner": a process that waits for
// another parks on a sim.WaitQueue that whoever changes the condition
// releases, instead of re-testing it on a tick. In every non-test file
// outside the benchmark harness (whose loops pace runs, not library
// waits) it flags a Sleep(…) or a WaitUntil(x.Now() + …) inside a for or
// range body; a func literal starts afresh. A process whose period is
// the point (the sampler, think time) carries a //noftl:ignore at its
// Sleep.
var TimedRetry = &Analyzer{Name: "timedretry", Run: runTimedRetry}

func runTimedRetry(pass *Pass) {
	if pass.Path == harnessPath {
		return
	}
	for _, f := range pass.Files {
		if !pass.isTestFile(f) {
			timedRetries(f, false, func(c *ast.CallExpr) {
				pass.Reportf(c.Pos(), "timed retry in a loop; park on a sim.WaitQueue its releaser wakes")
			})
		}
	}
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
