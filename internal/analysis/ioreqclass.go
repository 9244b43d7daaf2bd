package analysis

import (
	"go/ast"
	"strings"
)

// IOReqClass enforces the PR-5 request-descriptor discipline that makes
// the scheduler's QoS claims real: every I/O entering the stack says
// what it is.
//
//   - An ioreq.Req composite literal outside package ioreq must set
//     Class explicitly. A forgotten Class silently dispatches at the
//     command's op-type class — exactly the "layered stack loses
//     request semantics" failure the descriptor exists to prevent. A
//     deliberately intent-free descriptor is spelled ioreq.Plain(w).
//   - A zero-value storage.IOCtx{} handed to an API call has no waiter
//     and panics at its first I/O — at runtime, and only on exercised
//     paths; this rule is the static guard. Build contexts with
//     storage.NewIOCtx instead.
//   - In serve-layer packages (import path suffix "/serve"), a keyed
//     ioreq.Req or storage.IOCtx literal must also set Tag: the serving
//     front's whole point is that every request carries its tenant's
//     stream tag down to the die queues, and a tagless context built
//     inside the front dispatches anonymously — admission accounting,
//     per-tenant blame and the burn-rate guard all lose that request.
//     Session.admit stamps the full descriptor; new serve code should
//     derive contexts from it rather than building bare ones.
var IOReqClass = &Analyzer{
	Name: "ioreqclass",
	Doc:  "flags ioreq.Req literals without an explicit Class, zero-value storage.IOCtx arguments, and tagless request literals in serve-layer packages",
	Run:  runIOReqClass,
}

const (
	ioreqPath   = "noftl/internal/ioreq"
	storagePath = "noftl/internal/storage"
)

func runIOReqClass(pass *Pass) {
	ownPkg := pass.BasePath() == ioreqPath
	serveLayer := strings.HasSuffix(pass.BasePath(), "/serve")
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if !ownPkg {
				checkReqLit(pass, n)
			}
			if serveLayer {
				checkServeTag(pass, n)
			}
		case *ast.CallExpr:
			checkZeroIOCtx(pass, n)
		}
		return true
	})
}

// checkReqLit flags keyed (or empty) ioreq.Req literals that omit the
// Class field. Positional literals necessarily spell every field, and
// package ioreq itself builds intent-free descriptors by definition
// (Plain, From), so it is exempt.
func checkReqLit(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok || !IsNamed(tv.Type, ioreqPath, "Req") {
		return
	}
	positional := false
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			positional = true
			break
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Class" {
			return
		}
	}
	if positional {
		return
	}
	pass.Reportf(lit.Pos(),
		"ioreq.Req literal without an explicit Class: declare the scheduler class the request dispatches at (use ioreq.Plain for a deliberately intent-free descriptor)")
}

// checkServeTag flags keyed (or empty) request literals in serve-layer
// packages that omit the Tag field. Positional literals spell every
// field and are exempt, like checkReqLit.
func checkServeTag(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return
	}
	var kind string
	switch {
	case IsNamed(tv.Type, ioreqPath, "Req"):
		kind = "ioreq.Req"
	case IsNamed(tv.Type, storagePath, "IOCtx"):
		kind = "storage.IOCtx"
	default:
		return
	}
	positional := false
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			positional = true
			break
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Tag" {
			return
		}
	}
	if positional {
		return
	}
	pass.Reportf(lit.Pos(),
		"serve-layer %s literal without a tenant Tag: every request the serving front issues must carry its tenant's stream tag (Session.admit stamps the full descriptor — derive from it)", kind)
}

// checkZeroIOCtx flags a zero-value storage.IOCtx composite literal
// used directly as a call argument or method receiver.
func checkZeroIOCtx(pass *Pass, call *ast.CallExpr) {
	exprs := append([]ast.Expr(nil), call.Args...)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		exprs = append(exprs, sel.X)
	}
	for _, arg := range exprs {
		e := ast.Unparen(arg)
		if u, ok := e.(*ast.UnaryExpr); ok {
			e = ast.Unparen(u.X)
		}
		lit, ok := e.(*ast.CompositeLit)
		if !ok || len(lit.Elts) > 0 {
			continue
		}
		tv, ok := pass.Info.Types[lit]
		if !ok || !IsNamed(tv.Type, storagePath, "IOCtx") {
			continue
		}
		pass.Reportf(arg.Pos(),
			"zero-value storage.IOCtx passed to a call: it has no waiter and panics at its first I/O; build the context with storage.NewIOCtx")
	}
}
