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

// TestQoSObsDirWritesDocumentedFiles runs the sched ablation, the qos
// demo and the serve ablation at tiny scale with -obs-dir and -json:
// exactly the file set README documents for each appears, nothing else,
// the report has the experiment's rows, and the printed summaries are
// there. Every observed run writes its device health; serve runs
// telemetry without blame, so it exports a trace with no command log.
func TestQoSObsDirWritesDocumentedFiles(t *testing.T) {
	for _, tc := range []struct {
		exp   string
		args  []string
		files []string
		rows  int
		print []string
	}{
		{"sched", []string{"-dies", "4", "-drive-mb", "24", "-workers", "8", "-frames", "128"},
			[]string{"blame.folded", "blame.json", "health.json", "metrics.json", "trace.json"}, 3,
			[]string{"device health:\n", "blame matrix (bg-gc+prio)"}},
		{"qos", []string{"-dies", "4", "-drive-mb", "32", "-workers", "8",
			"-frames", "128", "-qos-low-deadline-ms", "3"},
			[]string{"blame.folded", "blame.json", "health.json", "metrics.json", "trace.json"}, 2,
			[]string{"dominant latency culprit", "missed-deadline wait by culprit class:\n  "}},
		{"serve", []string{"-serve-clients", "40", "-serve-rows", "1024"},
			[]string{"health.json", "metrics.json", "trace.json"}, 4,
			[]string{"flight recorder (rate-limit+shed)"}},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			dir := t.TempDir()
			obs := filepath.Join(dir, "obs")
			jsonPath := filepath.Join(dir, tc.exp+".json")
			var out, errOut bytes.Buffer
			args := append([]string{"-exp", tc.exp, "-measure-s", "1",
				"-obs-dir", obs, "-json", jsonPath}, tc.args...)
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
			if strings.Join(got, " ") != strings.Join(tc.files, " ") {
				t.Fatalf("obs-dir holds %v, want exactly %v", got, tc.files)
			}
			report, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(report), `"experiment": "`+tc.exp+`"`); n != tc.rows {
				t.Fatalf("report has %d %s rows, want %d:\n%s", n, tc.exp, tc.rows, report)
			}
			for _, want := range tc.print {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q:\n%s", want, out.String())
				}
			}
		})
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
