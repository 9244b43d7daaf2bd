package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the repo's byte-determinism contract: a fixed
// seed must produce byte-identical bench tables and exports (the golden
// files of PRs 6–8 depend on it). Three bug classes break it silently:
//
//   - wall-clock reads (time.Now / time.Since) leaking into simulation
//     or exporter code — the simulated clock (sim.Time) is the only
//     legal time source;
//   - the process-global math/rand source, which is unseeded (Go 1.20+
//     seeds it randomly) — every random stream must come from
//     rand.New(rand.NewSource(seed));
//   - iterating a map while producing ordered output (writing to an
//     io.Writer / strings.Builder, emitting stats table rows, or
//     collecting into a slice that is never sorted) — map order is
//     randomized per run.
//
// Deliberate wall-clock uses (the benchmark harness's host-cost
// measurement) carry //noftl:ignore comments at the call sites.
var Determinism = &Analyzer{Name: "determinism", Run: runDeterminism}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				determinismFunc(pass, fd)
				continue
			}
			// Package-level initializers draw clocks and randomness too.
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					checkWallClock(pass, call)
					checkGlobalRand(pass, call)
				}
				return true
			})
		}
	}
}

// determinismFunc checks one function body (nested function literals
// included — a sort call anywhere in the same declaration counts as
// ordering the collected keys).
func determinismFunc(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkWallClock(pass, n)
			checkGlobalRand(pass, n)
		case *ast.RangeStmt:
			checkMapRange(pass, fd, n)
		}
		return true
	})
}

func checkWallClock(pass *Pass, call *ast.CallExpr) {
	fn := pass.Callee(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return
	}
	if name := fn.Name(); name == "Now" || name == "Since" {
		pass.Reportf(call.Pos(),
			"time.%s reads the wall clock; sim and exporter code must use the simulated clock (sim.Time)", name)
	}
}

func checkGlobalRand(pass *Pass, call *ast.CallExpr) {
	fn := pass.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return
	}
	if fn.Signature().Recv() != nil {
		return // method on *rand.Rand: the caller owns the seed
	}
	if strings.HasPrefix(fn.Name(), "New") {
		return // constructors (New, NewSource, NewZipf) draw nothing
	}
	pass.Reportf(call.Pos(),
		"rand.%s draws from the unseeded process-global source; use rand.New(rand.NewSource(seed))", fn.Name())
}

// checkMapRange flags `for ... := range m` over a map when the body
// produces ordered output: writes to a Writer/Builder, emits stats
// table rows, or appends to an outer slice that the function never
// sorts. The sanctioned pattern — collect the keys, sort them, range
// the sorted slice — passes because the collection append is followed
// by a sort call on the same variable.
func checkMapRange(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	t := pass.Info.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	var reason string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if r := orderedSink(pass, call); r != "" {
			reason = r
			return false
		}
		if ap := unsortedAppend(pass, fd, rng, call); ap != "" {
			reason = ap
			return false
		}
		return true
	})
	if reason != "" {
		pass.Reportf(rng.Pos(),
			"map iteration %s; map order is nondeterministic — collect and sort the keys first", reason)
	}
}

// orderedSink reports whether call writes ordered output (non-empty
// description) directly.
func orderedSink(pass *Pass, call *ast.CallExpr) string {
	fn := pass.Callee(call)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fn.Signature().Recv() == nil {
		if strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print") {
			return "writes output (fmt." + name + ")"
		}
	}
	if fn.Signature().Recv() == nil {
		return ""
	}
	recv := fn.Signature().Recv().Type()
	if strings.HasPrefix(name, "Write") {
		return "writes output (" + types.TypeString(recv, nil) + "." + name + ")"
	}
	if name == "Row" && IsNamed(recv, "noftl/internal/stats", "Table") {
		return "emits stats table rows (Table.Row)"
	}
	return ""
}

// unsortedAppend reports (non-empty description) an `x = append(x,…)`
// in the loop body where x is declared outside the range statement, or
// an `x.f = append(x.f,…)` wherever x is declared (a loop-local pointer
// may point into outer state), and no sort call on x (on field f) appears
// anywhere in the enclosing declaration.
func unsortedAppend(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return ""
	}
	if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return ""
	}
	var obj types.Object
	switch target := ast.Unparen(call.Args[0]).(type) {
	case *ast.Ident:
		// Only variables declared outside the loop escape it; an append
		// to a loop-local accumulates nothing across iterations.
		obj = pass.Info.Uses[target]
		if obj == nil || obj.Parent() == nil || rng.Pos() <= obj.Pos() && obj.Pos() <= rng.End() {
			return ""
		}
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[target.Sel]
		if v, ok := obj.(*types.Var); !ok || !v.IsField() {
			return ""
		}
	default:
		return ""
	}
	if sortedInFunc(pass, fd, obj) {
		return ""
	}
	return "collects into " + types.ExprString(call.Args[0]) + " without a later sort"
}

// sortedInFunc reports whether the declaration contains a sort./slices.
// sort call mentioning obj: a variable, or a field of whatever operand.
func sortedInFunc(pass *Pass, fd *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pass.Callee(call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		p := fn.Pkg().Path()
		isSort := (p == "sort" && (strings.HasPrefix(fn.Name(), "Sort") || fn.Name() == "Strings" ||
			fn.Name() == "Ints" || fn.Name() == "Float64s" || fn.Name() == "Slice" ||
			fn.Name() == "SliceStable" || fn.Name() == "Stable")) ||
			(p == "slices" && strings.HasPrefix(fn.Name(), "Sort"))
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if aid, ok := an.(*ast.Ident); ok && pass.Info.Uses[aid] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
