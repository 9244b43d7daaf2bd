package analysis

import (
	"go/ast"
	"go/constant"
	"regexp"
)

// MetricName enforces the PR-6 registry naming scheme: metric names
// follow "layer.metric" (flash.erases, sched.wait.read_us,
// buffer.hit_rate), and registration order is the column order of every
// export — so names must be compile-time stable. A dynamic name built
// from runtime state can differ between runs, silently desyncing series
// columns and the golden exports.
//
// A registration passes when its name argument is a constant matching
// layer.metric, or a concatenation whose leftmost operand is a constant
// "layer." prefix (the sanctioned per-class pattern:
// "sched.wait."+class.String()+"_us" — the derived part enumerates a
// fixed enum, so the set is stable for a fixed build).
var MetricName = &Analyzer{
	Name: "metricname",
	Doc:  "flags Registry registrations with non-constant names or names not matching layer.metric",
	Run:  runMetricName,
}

const telemetryPath = "noftl/internal/telemetry"

var (
	metricNameRE   = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)
	metricPrefixRE = regexp.MustCompile(`^[a-z][a-z0-9_]*\.`)
)

func runMetricName(pass *Pass) {
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pass.Callee(call)
		if fn == nil || fn.Signature().Recv() == nil || len(call.Args) < 1 {
			return true
		}
		if name := fn.Name(); name != "Gauge" && name != "Counter" {
			return true
		}
		if !IsNamed(fn.Signature().Recv().Type(), telemetryPath, "Registry") {
			return true
		}
		arg := call.Args[0]
		if tv, ok := pass.Info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			name := constant.StringVal(tv.Value)
			if !metricNameRE.MatchString(name) {
				pass.Reportf(arg.Pos(),
					"metric name %q doesn't match the layer.metric scheme (lowercase [a-z0-9_] segments joined by dots)", name)
			}
			return true
		}
		if pre, ok := leftmostConst(pass, arg); ok && metricPrefixRE.MatchString(pre) {
			return true
		}
		pass.Reportf(arg.Pos(),
			"non-constant metric name: registry columns must be build-stable — use a constant \"layer.metric\" name (a constant \"layer.\" prefix with a derived suffix is allowed)")
		return true
	})
}

// leftmostConst descends the left spine of a + concatenation and
// returns the leftmost operand's constant string value.
func leftmostConst(pass *Pass, e ast.Expr) (string, bool) {
	for {
		be, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			break
		}
		e = be.X
	}
	if tv, ok := pass.Info.Types[ast.Unparen(e)]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	return "", false
}
