package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
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
}

func b() {
	//noftl:ignore determinism
	_ = 2
}

func c() {
	//noftl:ignore nosuch reasons don't save unknown analyzers
	_ = 3
}

func d() {
	//noftl:ignore
	_ = 4
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ig, diags := scanIgnores(fset, []*ast.File{f}, map[string]bool{"determinism": true})
	if len(ig) != 1 {
		t.Fatalf("ignore set size = %d, want 1 (only the well-formed directive): %v", len(ig), ig)
	}
	if !ig[ignoreKey{file: "p.go", line: 4, analyzer: "determinism"}] {
		t.Fatalf("well-formed directive missing from set: %v", ig)
	}
	if len(diags) != 3 {
		t.Fatalf("malformed-directive diagnostics = %d, want 3: %v", len(diags), diags)
	}
	wants := []string{"needs a reason", "unknown analyzer nosuch", "needs an analyzer name and a reason"}
	for _, want := range wants {
		found := false
		for _, d := range diags {
			if d.Analyzer == ignoreAnalyzer && strings.Contains(d.Message, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q diagnostic among %v", want, diags)
		}
	}
}

// TestSuppressesAdjacency: a directive silences the same line and the
// line below it (standalone form), nothing further away.
func TestSuppressesAdjacency(t *testing.T) {
	ig := ignoreSet{ignoreKey{file: "x.go", line: 10, analyzer: "determinism"}: true}
	at := func(line int, analyzer string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: "x.go", Line: line}, Analyzer: analyzer}
	}
	if !ig.suppresses(at(10, "determinism")) {
		t.Error("trailing form (same line) must suppress")
	}
	if !ig.suppresses(at(11, "determinism")) {
		t.Error("standalone form (line above) must suppress")
	}
	if ig.suppresses(at(12, "determinism")) {
		t.Error("a directive two lines up must not suppress")
	}
	if ig.suppresses(at(10, "nilrecv")) {
		t.Error("a directive must only suppress the named analyzer")
	}
}

// TestIgnoreFixtureSuppressesExactlyOne pins the end-to-end behaviour:
// in the ignore fixture, the two well-formed directives each silence
// exactly one finding, and every malformed directive leaves its finding
// alive while adding an "ignore" diagnostic of its own.
func TestIgnoreFixtureSuppressesExactlyOne(t *testing.T) {
	diags, dir := runFixture(t, "ignore", []*Analyzer{Determinism})
	var det, ign int
	for _, d := range diags {
		switch d.Analyzer {
		case "determinism":
			det++
		case ignoreAnalyzer:
			ign++
		default:
			t.Errorf("unexpected analyzer in fixture output: %s", d)
		}
	}
	// Five time.Now sites minus the two suppressed (Paced, Trailing).
	if det != 3 {
		t.Errorf("determinism findings = %d, want 3:\n%s", det, formatDiags(t, dir, diags))
	}
	// Bare (no reason), Typo (unknown analyzer), Naked (no fields).
	if ign != 3 {
		t.Errorf("ignore diagnostics = %d, want 3:\n%s", ign, formatDiags(t, dir, diags))
	}
	// The suppressed sites are the ones adjacent to well-formed
	// directives; their lines must not appear at all.
	for _, d := range diags {
		if d.Analyzer != "determinism" {
			continue
		}
		if d.Pos.Line == pacedLine(t, dir) || d.Pos.Line == trailingLine(t, dir) {
			t.Errorf("suppressed site still reported: %s", d)
		}
	}
}

// pacedLine / trailingLine locate the suppressed time.Now sites by
// their marker text, so the test doesn't hardcode line numbers.
func pacedLine(t *testing.T, dir string) int {
	return lineContaining(t, filepath.Join(dir, "fixture.go"), "sanctioned wall-clock use") + 1
}

func trailingLine(t *testing.T, dir string) int {
	return lineContaining(t, filepath.Join(dir, "fixture.go"), "trailing form works too")
}

// lineContaining returns the 1-based line of the first occurrence of
// marker in the file.
func lineContaining(t *testing.T, path, marker string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, marker) {
			return i + 1
		}
	}
	t.Fatalf("marker %q not found in %s", marker, path)
	return 0
}
