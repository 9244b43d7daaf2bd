package analysis

import "go/token"

// The driver: load packages, run every analyzer over every unit, apply
// suppression comments, and return deterministically ordered findings.

// Run loads patterns (relative to base) with the loader and applies the
// analyzer suite to every unit. Diagnostics come back sorted by file,
// line, analyzer and message; suppressed findings are dropped, and
// malformed or stale //noftl:ignore comments are reported under the
// "ignore" pseudo-analyzer.
//
//noftl:ignore facade the suite's entry point: the root package's TestStaticInvariants is its user
func Run(l *Loader, base string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := l.Load(base, patterns...)
	if err != nil {
		return nil, err
	}
	uses := buildUseIndex(l.Fset, pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, checkUnit(l.Fset, pkg, pkgs, uses, analyzers)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// checkUnit runs the analyzers over one loaded unit of module and
// applies that unit's suppression comments. A well-formed directive
// naming one of the analyzers that ran, and silencing nothing, is
// itself a finding.
func checkUnit(fset *token.FileSet, pkg *Package, module []*Package, uses *useIndex, analyzers []*Analyzer) []Diagnostic {
	ig, diags := scanIgnores(fset, pkg.Files)
	var found []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{
			Analyzer: a,
			Fset:     fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			Module:   module,
			uses:     uses,
			diags:    &found,
		})
	}
	for _, d := range found {
		if !ig.suppresses(d) {
			diags = append(diags, d)
		}
	}
	return append(diags, ig.stale(analyzers)...)
}
