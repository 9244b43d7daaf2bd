package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// registry mirrors the keys of BENCHMARK.json the tests read.
type registry struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []registryMetric `json:"end_to_end"`
	PerLayer []registryMetric `json:"per_layer"`
}

type registryMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readRegistry(t *testing.T) registry {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var r registry
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return r
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, within the contract's limits.
func TestRegistryMatchesProgram(t *testing.T) {
	r := readRegistry(t)
	if n := len(r.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2..8", n)
	}
	if n := len(r.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1..16", n)
	}
	if n := len(r.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
	if r.RunSeconds < 1 || r.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", r.RunSeconds)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(r.Workloads) != len(workloads) {
		t.Fatalf("registry has %d workloads, program has %d", len(r.Workloads), len(workloads))
	}
	for i, w := range r.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: registry %q, program %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(kind string, got []registryMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: registry has %d metrics, program has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			name(m.Name)
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: registry %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", m.Name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
			}
		}
	}
	check("end_to_end", r.EndToEnd, endToEndDefs, true)
	check("per_layer", r.PerLayer, perLayerDefs(), false)
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
}

// A fixed seed and run length must give bit-identical simulated metrics:
// that is what lets a later change compare sim_* exactly.
func TestSimMetricsRepeatExactly(t *testing.T) {
	w, _ := findWorkload("tpcb_native")
	run := func() []metricValue {
		m, err := w.run(7, 0.5, false, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.problems) > 0 {
			t.Fatalf("problems: %v", m.problems)
		}
		return m.endToEnd()
	}
	a, b := run(), run()
	for i := range a {
		if !strings.HasPrefix(a[i].Name, "sim_") {
			continue
		}
		if a[i].Value != b[i].Value {
			t.Errorf("%s: %v then %v", a[i].Name, a[i].Value, b[i].Value)
		}
		if a[i].Value == 0 {
			t.Errorf("%s is 0", a[i].Name)
		}
	}
}

// A traced run prints every per-layer metric, ends with the contract's
// one-line result, writes its trace, and tracing moves no simulated
// number.
func TestTracedRunPrintsEveryMetric(t *testing.T) {
	w, _ := findWorkload("dev_pattern")
	dir := t.TempDir()
	o, err := runTraced(w, 7, 0.2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Correct {
		t.Fatalf("problems: %v", o.Problems)
	}
	var line struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(resultLine(o)), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("result line: correct %v attempted %d failed %d", line.Correct, line.Attempted, line.Failed)
	}
	want := readRegistry(t).PerLayer
	if len(line.Metrics) != len(want) {
		t.Errorf("result line has %d metrics, registry lists %d", len(line.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := line.Metrics[m.Name]
		if !ok || got.Value == nil || got.Unit != m.Unit {
			t.Errorf("%s [%s] missing from the result line", m.Name, m.Unit)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "trace-dev_pattern.json")); err != nil {
		t.Errorf("trace not written: %v", err)
	}
}
