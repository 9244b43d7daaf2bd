package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestScanIgnores exercises the directive grammar directly: well-formed
// directives land in the set, each malformed shape is its own
// diagnostic.
func TestScanIgnores(t *testing.T) {
	const src = `package p

func a() {
	//noftl:ignore determinism a perfectly good reason
	_ = 1
	//noftl:ignore determinism
	_ = 2
	//noftl:ignore nosuch reasons don't save unknown analyzers
	_ = 3
	//noftl:ignore
	_ = 4
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ig, diags := scanIgnores(fset, []*ast.File{f})
	if len(ig) != 1 || ig[0].pos.Line != 4 || ig[0].analyzer != "determinism" {
		t.Fatalf("ignore set = %v, want only the well-formed directive at line 4", ig)
	}
	wants := []string{"needs a reason", "unknown analyzer nosuch", "needs an analyzer name and a reason"}
	if len(diags) != len(wants) {
		t.Fatalf("malformed-directive diagnostics = %v, want %d", diags, len(wants))
	}
	for i, want := range wants {
		if diags[i].Analyzer != ignoreAnalyzer || !strings.Contains(diags[i].Message, want) {
			t.Errorf("diagnostic %d = %s, want an %s finding containing %q", i, diags[i], ignoreAnalyzer, want)
		}
	}
}

// TestSuppressesAdjacency: a directive silences the same line and the
// line below it (standalone form), nothing further away, and only the
// analyzer it names. A directive that silenced nothing is stale.
func TestSuppressesAdjacency(t *testing.T) {
	at := func(line int, analyzer string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: "x.go", Line: line}, Analyzer: analyzer}
	}
	set := func() ignoreSet { return ignoreSet{{pos: at(10, "").Pos, analyzer: "determinism"}} }
	for _, c := range []struct {
		d    Diagnostic
		want bool
	}{
		{at(10, "determinism"), true}, // trailing form
		{at(11, "determinism"), true}, // standalone form
		{at(12, "determinism"), false},
		{at(10, "nilrecv"), false},
	} {
		ig := set()
		if got := ig.suppresses(c.d); got != c.want {
			t.Errorf("suppresses(%s) = %v, want %v", c.d, got, c.want)
		}
		if stale := ig.stale([]*Analyzer{Determinism}); (len(stale) == 0) != c.want {
			t.Errorf("after %s: stale = %v", c.d, stale)
		}
	}
}

// TestIgnoreFixtureSuppressesExactlyOne pins the end-to-end count: in
// the ignore fixture the two adjacent well-formed directives each
// silence exactly one of the seven time.Now findings, and the three
// malformed and three stale directives are findings of their own.
func TestIgnoreFixtureSuppressesExactlyOne(t *testing.T) {
	diags, dir := runFixture(t, "ignore", []*Analyzer{Determinism, NilRecv})
	count := map[string]int{}
	for _, d := range diags {
		count[d.Analyzer]++
	}
	if want := map[string]int{"determinism": 5, ignoreAnalyzer: 6}; len(count) != len(want) ||
		count["determinism"] != want["determinism"] || count[ignoreAnalyzer] != want[ignoreAnalyzer] {
		t.Errorf("findings per analyzer = %v, want %v:\n%s", count, want, formatDiags(t, dir, diags))
	}
}
