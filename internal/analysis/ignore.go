package analysis

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// Suppression comments.
//
// A finding that is deliberate — the benchmark's host-cost clock, a test
// that exists to prove a zero-value context panics — is silenced in
// place with
//
//	//noftl:ignore <analyzer> <reason>
//
// either trailing on the flagged line or standalone on the line above
// it. The reason is mandatory: an ignore that doesn't say why is itself
// a diagnostic (analyzer name "ignore"), as is an ignore naming an
// analyzer that doesn't exist — a typo there would silently suppress
// nothing — and an ignore that silences nothing its analyzer finds, so
// an exception goes with the code it excused.

const ignoreDirective = "noftl:ignore"

// ignoreAnalyzer is the pseudo-analyzer name under which the driver
// reports malformed and stale suppression comments.
const ignoreAnalyzer = "ignore"

// ignore is one well-formed suppression comment.
type ignore struct {
	pos      token.Position
	analyzer string
	used     bool // it silenced a finding
}

// ignoreSet is a unit's well-formed suppressions in source order.
type ignoreSet []ignore

// scanIgnores collects the unit's suppression comments. Malformed
// directives are returned as diagnostics.
func scanIgnores(fset *token.FileSet, files []*ast.File) (ignoreSet, []Diagnostic) {
	var ig ignoreSet
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
				if !slices.ContainsFunc(All(), func(a *Analyzer) bool { return a.Name == name }) {
					bad("//" + ignoreDirective + " names unknown analyzer " + name)
					continue
				}
				if len(fields) < 2 {
					bad("//" + ignoreDirective + " " + name + " needs a reason")
					continue
				}
				ig = append(ig, ignore{pos: pos, analyzer: name})
			}
		}
	}
	return ig, diags
}

// suppresses reports whether the set silences d: a matching directive
// on the diagnostic's line (trailing comment) or the line above it
// (standalone comment). The directive is then in use.
func (ig ignoreSet) suppresses(d Diagnostic) bool {
	for i := range ig {
		g := &ig[i]
		if g.analyzer == d.Analyzer && g.pos.Filename == d.Pos.Filename &&
			(g.pos.Line == d.Pos.Line || g.pos.Line == d.Pos.Line-1) {
			g.used = true
			return true
		}
	}
	return false
}

// stale reports each directive naming one of analyzers that silenced
// nothing: the exception it recorded no longer exists.
func (ig ignoreSet) stale(analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, g := range ig {
		if !g.used && slices.ContainsFunc(analyzers, func(a *Analyzer) bool { return a.Name == g.analyzer }) {
			diags = append(diags, Diagnostic{Pos: g.pos, Analyzer: ignoreAnalyzer,
				Message: "//" + ignoreDirective + " " + g.analyzer + " silences nothing; delete it"})
		}
	}
	return diags
}
