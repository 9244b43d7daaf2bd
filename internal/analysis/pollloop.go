package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PollLoop keeps fixed-interval re-tests inside the kernel (PR 19): a
// loop that waits one period relative to now, X.WaitUntil(X.Now() + d),
// wakes its process at every tick only to test a condition and sleep
// again; Waiter.Poll is the same wait with the re-tests run by
// Kernel.step. Loops that cannot be a Poll (a spin budget, state changed
// between tests) carry //noftl:ignore pollloop <reason>, so the remaining
// process-level polls stay greppable. Package sim, which defines Poll in
// terms of that loop, is exempt.
var PollLoop = &Analyzer{
	Name: "pollloop",
	Doc:  "flags relative waits (WaitUntil(Now()+d)) inside a for body: fixed-interval re-tests belong in Waiter.Poll",
	Run:  runPollLoop,
}

const simPath = "noftl/internal/sim"

func runPollLoop(pass *Pass) {
	if pass.BasePath() == simPath {
		return
	}
	for _, f := range pass.Files {
		ast.Walk(pollLoopVisitor{pass: pass}, f)
	}
}

// pollLoopVisitor is copied per subtree, so inLoop describes the node
// being visited: set below a for or range statement, cleared below a
// function literal (its body runs when called, not per iteration).
type pollLoopVisitor struct {
	pass   *Pass
	inLoop bool
}

func (v pollLoopVisitor) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.ForStmt, *ast.RangeStmt:
		v.inLoop = true
	case *ast.FuncLit:
		v.inLoop = false
	case *ast.CallExpr:
		if !v.inLoop || len(n.Args) != 1 {
			break
		}
		// X.WaitUntil(X.Now() + …), both on the same sim.Waiter.
		sum, ok := ast.Unparen(n.Args[0]).(*ast.BinaryExpr)
		if !ok || sum.Op != token.ADD {
			break
		}
		now, ok := ast.Unparen(sum.X).(*ast.CallExpr)
		if !ok {
			break
		}
		x, y := v.waiterCall(n, "WaitUntil"), v.waiterCall(now, "Now")
		if x != nil && y != nil && types.ExprString(x) == types.ExprString(y) {
			v.pass.Reportf(n.Pos(), "relative wait in a loop: use Waiter.Poll (or //noftl:ignore pollloop <reason>)")
		}
	}
	return v
}

// waiterCall returns the receiver expression if call invokes the named
// sim.Waiter method — through the interface, one of package sim's
// waiters, or the *ioreq.Req that forwards to one — and nil otherwise.
func (v pollLoopVisitor) waiterCall(call *ast.CallExpr, method string) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	fn := v.pass.Callee(call)
	if !ok || fn == nil || fn.Name() != method || fn.Pkg() == nil || fn.Signature().Recv() == nil {
		return nil
	}
	if p := fn.Pkg().Path(); p != simPath && p != ioreqPath {
		return nil
	}
	return sel.X
}
