package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression comments.
//
// A finding that is deliberate — the wall-clock bridge in sim, a test
// that exists to prove a zero-value context panics — is silenced in
// place with
//
//	//noftl:ignore <analyzer> <reason>
//
// either trailing on the flagged line or standalone on the line above
// it. The reason is mandatory: an ignore that doesn't say why is itself
// a diagnostic (analyzer name "ignore"), as is an ignore naming an
// analyzer that doesn't exist — a typo there would silently suppress
// nothing.

const ignoreDirective = "noftl:ignore"

// ignoreAnalyzer is the pseudo-analyzer name under which the driver
// reports malformed suppression comments.
const ignoreAnalyzer = "ignore"

// ignoreSet records well-formed suppressions by file, line and
// analyzer name.
type ignoreSet map[ignoreKey]bool

type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// scanIgnores collects the package's suppression comments. Malformed
// directives are returned as diagnostics; known names the set of valid
// analyzer names.
func scanIgnores(fset *token.FileSet, files []*ast.File, known map[string]bool) (ignoreSet, []Diagnostic) {
	ig := ignoreSet{}
	var diags []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+ignoreDirective)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				bad := func(msg string) {
					diags = append(diags, Diagnostic{Pos: pos, Analyzer: ignoreAnalyzer, Message: msg})
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					bad("//" + ignoreDirective + " needs an analyzer name and a reason")
					continue
				}
				name := fields[0]
				if !known[name] {
					bad("//" + ignoreDirective + " names unknown analyzer " + name)
					continue
				}
				if len(fields) < 2 {
					bad("//" + ignoreDirective + " " + name + " needs a reason")
					continue
				}
				ig[ignoreKey{file: pos.Filename, line: pos.Line, analyzer: name}] = true
			}
		}
	}
	return ig, diags
}

// suppresses reports whether the set silences d: a matching directive
// on the diagnostic's line (trailing comment) or the line above it
// (standalone comment).
func (ig ignoreSet) suppresses(d Diagnostic) bool {
	return ig[ignoreKey{file: d.Pos.Filename, line: d.Pos.Line, analyzer: d.Analyzer}] ||
		ig[ignoreKey{file: d.Pos.Filename, line: d.Pos.Line - 1, analyzer: d.Analyzer}]
}
