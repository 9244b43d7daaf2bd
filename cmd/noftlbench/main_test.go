package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestUnknownFlagAndExperimentExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-sched-dies", "4"}, // removed spelling
		{"-exp", "no-such-experiment"},
		{"-exp", "validate", "stray"},
		{"-exp", "validate", "-dies", "four"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
		if errOut.Len() == 0 {
			t.Errorf("run(%q) printed no diagnostic", args)
		}
	}
}

func TestValidateSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "validate"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"=== validate ===", "max model error", "8 dies"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestQoSObsDirWritesDocumentedFiles runs the qos demo at tiny scale
// with -obs-dir and -json: exactly the file set README documents for
// qos appears, nothing else, and the report has the two tenant rows.
func TestQoSObsDirWritesDocumentedFiles(t *testing.T) {
	dir := t.TempDir()
	obs := filepath.Join(dir, "obs")
	jsonPath := filepath.Join(dir, "qos.json")
	var out, errOut bytes.Buffer
	args := []string{"-exp", "qos", "-dies", "4", "-drive-mb", "32", "-workers", "8",
		"-frames", "128", "-measure-s", "1", "-qos-low-deadline-ms", "3",
		"-obs-dir", obs, "-json", jsonPath}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	entries, err := os.ReadDir(obs)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || info.Size() == 0 {
			t.Errorf("artifact %s is empty (%v)", e.Name(), err)
		}
		got = append(got, e.Name())
	}
	want := []string{"blame.folded", "blame.json", "metrics.json", "trace.json"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("obs-dir holds %v, want exactly %v", got, want)
	}
	report, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(report), `"experiment": "qos"`); n != 2 {
		t.Fatalf("report has %d qos rows, want 2:\n%s", n, report)
	}
	if !strings.Contains(out.String(), "dominant latency culprit") {
		t.Errorf("blame verdict missing from output:\n%s", out.String())
	}
}

// TestEveryFlagDocumented keeps README's flag table and the flag set in
// step, and pins the flag budget the harness was cut down to.
func TestEveryFlagDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	(&app{}).flagSet().VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	sort.Strings(names)
	if len(names) > 20 {
		t.Errorf("%d flags registered, budget is 20: %v", len(names), names)
	}
	for _, n := range names {
		if !strings.Contains(string(readme), "| `-"+n+"`") && !strings.Contains(string(readme), ", `-"+n+"` |") {
			t.Errorf("flag -%s is not in README's noftlbench flag table", n)
		}
	}
}
