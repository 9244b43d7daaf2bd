package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"noftl/internal/bench"
)

func writeReport(t *testing.T, dir, name string, rep bench.JSONReport) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func result(exp, wl, stack string, tps, p99, wa float64) bench.JSONResult {
	return bench.JSONResult{Experiment: exp, Workload: wl, Stack: stack,
		TPS: tps, CommitP99us: p99, WA: wa}
}

// TestMissingBaseline: a nonexistent baseline is "nothing to compare
// against yet" and must exit 3 with a message naming the file, distinct
// from the regression (1) and usage (2) codes so CI can branch on it.
func TestMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	next := writeReport(t, dir, "next.json", bench.JSONReport{
		Results: []bench.JSONResult{result("e", "w", "noftl", 100, 50, 1.1)},
	})
	var out, errBuf strings.Builder
	code := run([]string{filepath.Join(dir, "absent.json"), next}, &out, &errBuf)
	if code != exitMissing {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitMissing, errBuf.String())
	}
	msg := errBuf.String()
	if !strings.Contains(msg, "absent.json") || !strings.Contains(msg, "does not exist") {
		t.Fatalf("message must name the missing file: %q", msg)
	}
	if !strings.Contains(msg, "noftlbench") {
		t.Fatalf("baseline message should say how to create one: %q", msg)
	}
}

// TestMissingNewFile: a missing new-report file also exits 3 (the input
// set is incomplete), but without the create-a-baseline hint.
func TestMissingNewFile(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", bench.JSONReport{
		Results: []bench.JSONResult{result("e", "w", "noftl", 100, 50, 1.1)},
	})
	var out, errBuf strings.Builder
	code := run([]string{base, filepath.Join(dir, "gone.json")}, &out, &errBuf)
	if code != exitMissing {
		t.Fatalf("exit = %d, want %d", code, exitMissing)
	}
	if msg := errBuf.String(); !strings.Contains(msg, "gone.json") {
		t.Fatalf("message must name the missing file: %q", msg)
	}
}

// TestMalformedInputIsUsage: an unparsable report is exit 2, not 3 — the
// file exists, its contents are the problem.
func TestMalformedInputIsUsage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	next := writeReport(t, dir, "next.json", bench.JSONReport{})
	var out, errBuf strings.Builder
	if code := run([]string{bad, next}, &out, &errBuf); code != exitUsage {
		t.Fatalf("exit = %d, want %d", code, exitUsage)
	}
}

func TestUsageExitCode(t *testing.T) {
	var out, errBuf strings.Builder
	if code := run([]string{"only-one.json"}, &out, &errBuf); code != exitUsage {
		t.Fatalf("exit = %d, want %d", code, exitUsage)
	}
}

// TestExitCodes: identical reports exit 0; a matched row with any field
// moved exits 1 and lists that field with base, new and delta.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", bench.JSONReport{
		Results: []bench.JSONResult{result("e", "w", "noftl", 100, 50, 1.1)},
	})
	same := writeReport(t, dir, "same.json", bench.JSONReport{
		Results: []bench.JSONResult{result("e", "w", "noftl", 100, 50, 1.1)},
	})
	slow := writeReport(t, dir, "slow.json", bench.JSONReport{
		Results: []bench.JSONResult{result("e", "w", "noftl", 99.5, 50, 1.1)},
	})
	var out, errBuf strings.Builder
	if code := run([]string{base, same}, &out, &errBuf); code != exitOK {
		t.Fatalf("clean diff exit = %d, want %d\n%s", code, exitOK, out.String())
	}
	out.Reset()
	if code := run([]string{base, slow}, &out, &errBuf); code != exitDiffer {
		t.Fatalf("changed-row exit = %d, want %d\n%s", code, exitDiffer, out.String())
	}
	if !strings.Contains(out.String(), "e/w/noftl  tps    100   99.5  -0.5") {
		t.Fatalf("changed field must be listed with base, new and delta:\n%s", out.String())
	}
	if strings.Contains(out.String(), "commit_p99_us") {
		t.Fatalf("unchanged fields listed:\n%s", out.String())
	}
}

// TestChangedMapEntryPrinted: map fields compare entry by entry — a
// serve row whose paying tenant's p99 moved lists tenant_p99_us/paying
// and nothing for the unchanged batch entry.
func TestChangedMapEntryPrinted(t *testing.T) {
	dir := t.TempDir()
	serveRow := func(paying float64) bench.JSONResult {
		r := result("serve", "kv", "noftl-regions", 20000, 3000, 0)
		r.Mode = "rate-limit+shed"
		r.TenantP99us = map[string]float64{"paying": paying, "batch": 50000}
		return r
	}
	base := writeReport(t, dir, "base.json", bench.JSONReport{
		Results: []bench.JSONResult{serveRow(3000)},
	})
	moved := writeReport(t, dir, "moved.json", bench.JSONReport{
		Results: []bench.JSONResult{serveRow(5000)},
	})
	var out, errBuf strings.Builder
	if code := run([]string{base, moved}, &out, &errBuf); code != exitDiffer {
		t.Fatalf("changed map entry exit = %d, want %d\n%s", code, exitDiffer, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "serve/kv/noftl-regions/rate-limit+shed  tenant_p99_us/paying  3000  5000  +2000") {
		t.Fatalf("changed tenant entry missing:\n%s", report)
	}
	if strings.Contains(report, "tenant_p99_us/batch") || !strings.Contains(report, "1 difference(s)") {
		t.Fatalf("only the paying entry moved:\n%s", report)
	}
}

// TestDroppedRowsSorted: rows present only in the baseline come from a
// map; the report must list them in sorted order so reruns diff clean,
// and a dropped row is a difference.
func TestDroppedRowsSorted(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", bench.JSONReport{
		Results: []bench.JSONResult{
			result("zeta", "w", "noftl", 100, 50, 1.1),
			result("mid", "w", "noftl", 100, 50, 1.1),
			result("alpha", "w", "noftl", 100, 50, 1.1),
		},
	})
	next := writeReport(t, dir, "next.json", bench.JSONReport{})
	var first strings.Builder
	if code := run([]string{base, next}, &first, &strings.Builder{}); code != exitDiffer {
		t.Fatalf("dropped rows exit = %d, want %d", code, exitDiffer)
	}
	za, zm, zz := strings.Index(first.String(), "alpha"),
		strings.Index(first.String(), "mid"), strings.Index(first.String(), "zeta")
	if za < 0 || zm < 0 || zz < 0 {
		t.Fatalf("dropped rows missing from report:\n%s", first.String())
	}
	if !(za < zm && zm < zz) {
		t.Fatalf("dropped rows not sorted (alpha@%d mid@%d zeta@%d):\n%s", za, zm, zz, first.String())
	}
	// Byte-determinism across reruns.
	for i := 0; i < 3; i++ {
		var again strings.Builder
		run([]string{base, next}, &again, &strings.Builder{})
		if again.String() != first.String() {
			t.Fatalf("output differs across reruns:\n--- first\n%s\n--- again\n%s", first.String(), again.String())
		}
	}
}
