package analysis

// Golden-diagnostic tests: each testdata/src/<fixture> package is
// loaded with the real loader, run under one analyzer, and the
// formatted findings (paths relative to the fixture directory) must
// match the fixture's expect.txt byte for byte. Regenerate goldens
// with
//
//	NOFTLVET_UPDATE_GOLDEN=1 go test ./internal/analysis
//
// and review the diff like any other change.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// One loader for the whole test binary: the GOROOT source importer's
// cache is the expensive part, and it is shared across fixtures.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loaderVal, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderVal
}

// runFixture loads testdata/src/<name> and returns the diagnostics of
// the given analyzers plus the fixture's absolute directory.
func runFixture(t *testing.T, name string, analyzers []*Analyzer) ([]Diagnostic, string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(sharedLoader(t), dir, []string{"."}, analyzers)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return diags, dir
}

// formatDiags renders diagnostics the way noftlvet prints them, with
// filenames relative to the fixture directory.
func formatDiags(t *testing.T, dir string, diags []Diagnostic) string {
	t.Helper()
	var b strings.Builder
	for _, d := range diags {
		rel, err := filepath.Rel(dir, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s:%d: %s: %s\n", filepath.ToSlash(rel), d.Pos.Line, d.Analyzer, d.Message)
	}
	return b.String()
}

func TestAnalyzerGoldens(t *testing.T) {
	cases := []struct {
		fixture   string
		analyzers []*Analyzer
	}{
		{"determinism", []*Analyzer{Determinism}},
		{"ioreqclass", []*Analyzer{IOReqClass}},
		// The serve fixture exercises ioreqclass's serve-layer tag rule
		// (scoped by the "/serve" import-path suffix, which the fixture
		// directory shares with noftl/internal/serve).
		{"serve", []*Analyzer{IOReqClass}},
		{"nilrecv", []*Analyzer{NilRecv}},
		{"metricname", []*Analyzer{MetricName}},
		// The ignore fixture's violations are determinism ones; the
		// malformed directives surface under the "ignore" pseudo-analyzer
		// regardless of which analyzers run.
		{"ignore", []*Analyzer{Determinism}},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			diags, dir := runFixture(t, c.fixture, c.analyzers)
			got := formatDiags(t, dir, diags)
			if len(diags) == 0 {
				t.Fatalf("fixture %s produced no diagnostics; the flagged cases are being missed", c.fixture)
			}
			for _, d := range diags {
				if filepath.Base(d.Pos.Filename) == "clean.go" {
					t.Errorf("clean.go must stay clean, got: %s", d)
				}
			}
			golden := filepath.Join(dir, "expect.txt")
			if os.Getenv("NOFTLVET_UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", golden)
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with NOFTLVET_UPDATE_GOLDEN=1 to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s\n--- got\n%s--- want\n%s", golden, got, want)
			}
		})
	}
}

// TestGoldensAreDeterministic reruns one fixture and demands identical
// bytes: diagnostic ordering is part of the output contract.
func TestGoldensAreDeterministic(t *testing.T) {
	first, dir := runFixture(t, "determinism", []*Analyzer{Determinism})
	for i := 0; i < 3; i++ {
		again, _ := runFixture(t, "determinism", []*Analyzer{Determinism})
		if formatDiags(t, dir, again) != formatDiags(t, dir, first) {
			t.Fatal("diagnostic output differs across runs")
		}
	}
}
