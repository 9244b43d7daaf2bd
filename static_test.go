package noftl

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"noftl/internal/analysis"
)

// The module is loaded and analyzed once per test binary; every test
// below reads the same findings.
var static struct {
	once  sync.Once
	diags []analysis.Diagnostic
	err   error
}

// staticFindings runs the static-analysis suite (internal/analysis) over
// every package of the module, tests and the benchmark module included,
// and returns the findings with module-relative file names.
func staticFindings(t *testing.T) []analysis.Diagnostic {
	t.Helper()
	static.once.Do(func() {
		l, err := analysis.NewLoader(".")
		if err != nil {
			static.err = err
			return
		}
		static.diags, static.err = analysis.Run(l, l.ModuleDir, []string{"./..."}, analysis.All())
		for i := range static.diags {
			if rel, err := filepath.Rel(l.ModuleDir, static.diags[i].Pos.Filename); err == nil {
				static.diags[i].Pos.Filename = rel
			}
		}
	})
	if static.err != nil {
		t.Fatal(static.err)
	}
	return static.diags
}

// reportFindings fails t on each finding of analyzer whose message
// contains part, as "file:line: analyzer: message".
func reportFindings(t *testing.T, analyzer, part string) {
	for _, d := range staticFindings(t) {
		if (analyzer == "" || d.Analyzer == analyzer) && strings.Contains(d.Message, part) {
			t.Error(d)
		}
	}
}

// TestStaticInvariants fails on every finding of the suite. A deliberate
// exception is a "//noftl:ignore <analyzer> <reason>" on the flagged line
// or the line above it; one that silences nothing is a finding too.
func TestStaticInvariants(t *testing.T) { reportFindings(t, "", "") }

// The tests below name one invariant each, so a failure says which broke.

func TestOneThreadOfControl(t *testing.T)      { reportFindings(t, "onethread", "") }
func TestNoTimedRetry(t *testing.T)            { reportFindings(t, "timedretry", "") }
func TestEveryOptionHasASetter(t *testing.T)   { reportFindings(t, "setter", "") }
func TestPublicAPIDocumented(t *testing.T)     { reportFindings(t, "facade", "has no doc comment") }
func TestEveryFacadeNameHasAUser(t *testing.T) { reportFindings(t, "facade", "has no user") }
func TestEveryInternalNameHasANonTestUser(t *testing.T) {
	reportFindings(t, "facade", "has no non-test user")
}
