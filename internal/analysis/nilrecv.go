package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NilRecv enforces the telemetry nil-receiver contract (PR 6): types
// like ioreq.Span are documented nil-receiver-safe so instrumentation
// points can call through without guarding — a stack with telemetry off
// pays one nil check per call site, inside the method. The contract is
// all-or-nothing: one exported method that touches a field before its
// nil guard turns every unguarded call site into a latent panic that
// only fires with telemetry disabled, the configuration tests exercise
// least.
//
// A type opts into the contract by having any pointer-receiver method
// that nil-checks its receiver. For contract types, every exported
// pointer-receiver method must check the receiver against nil before
// the first receiver field access. Calling another method on the
// receiver is fine (that method guards itself, per the contract).
var NilRecv = &Analyzer{Name: "nilrecv", Run: runNilRecv}

func runNilRecv(pass *Pass) {
	type method struct {
		fd   *ast.FuncDecl
		recv *types.Var // the receiver variable, nil when unnamed
	}
	byType := map[*types.Named][]method{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) == 0 {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Signature()
			if sig.Recv() == nil {
				continue
			}
			ptr, ok := sig.Recv().Type().(*types.Pointer)
			if !ok {
				continue
			}
			named, ok := types.Unalias(ptr.Elem()).(*types.Named)
			if !ok {
				continue
			}
			byType[named] = append(byType[named], method{fd: fd, recv: sig.Recv()})
		}
	}
	for _, methods := range byType {
		contract := false
		for _, m := range methods {
			if pos := nilCheckPos(pass, m.fd, m.recv); pos.IsValid() {
				contract = true
				break
			}
		}
		if !contract {
			continue
		}
		for _, m := range methods {
			if !m.fd.Name.IsExported() {
				continue
			}
			fieldPos := firstFieldAccess(pass, m.fd, m.recv)
			if !fieldPos.IsValid() {
				continue
			}
			guardPos := nilCheckPos(pass, m.fd, m.recv)
			if guardPos.IsValid() && guardPos < fieldPos {
				continue
			}
			pass.Reportf(m.fd.Pos(),
				"exported method %s dereferences its nil-safe receiver before the nil guard; start with `if %s == nil { return ... }` (the type's methods are nil-receiver-safe by contract)",
				m.fd.Name.Name, recvName(m.fd))
		}
	}
}

func recvName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List[0].Names) > 0 {
		return fd.Recv.List[0].Names[0].Name
	}
	return "recv"
}

// nilCheckPos returns the position of the first `recv == nil` /
// `recv != nil` comparison in the method body (NoPos when absent).
func nilCheckPos(pass *Pass, fd *ast.FuncDecl, recv *types.Var) token.Pos {
	pos := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if (isRecvIdent(pass, be.X, recv) && isNil(pass, be.Y)) ||
			(isRecvIdent(pass, be.Y, recv) && isNil(pass, be.X)) {
			pos = be.Pos()
			return false
		}
		return true
	})
	return pos
}

// firstFieldAccess returns the position of the method body's first
// receiver field selection (read or write — both dereference).
func firstFieldAccess(pass *Pass, fd *ast.FuncDecl, recv *types.Var) token.Pos {
	pos := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if !isRecvIdent(pass, n.X, recv) {
				return true
			}
			if sel, ok := pass.Info.Selections[n]; ok && sel.Kind() == types.FieldVal {
				pos = n.Pos()
				return false
			}
		case *ast.StarExpr:
			if isRecvIdent(pass, n.X, recv) {
				pos = n.Pos()
				return false
			}
		}
		return true
	})
	return pos
}

func isRecvIdent(pass *Pass, e ast.Expr, recv *types.Var) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && recv != nil && pass.Info.Uses[id] == recv
}

func isNil(pass *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := pass.Info.Uses[id].(*types.Nil)
	return isNilObj
}
