// Command benchmark is the repository's performance benchmark: four
// workloads over the NoFTL stack, each reporting what a user sees in
// both currencies — simulated metrics and what the simulator costs on
// the host — plus per-layer probes and a traced run. BENCHMARK.json at
// the repository root registers it; README.md in this directory is the
// glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// workloadDef is one workload of the benchmark.
type workloadDef struct {
	name string
	// run measures the workload once: setups set-ups (the last is used),
	// then a window sized by seconds.
	run func(seed int64, seconds float64, traced bool, setups int, tr *tracer) (*measured, error)
}

// workloads lists the benchmark's workloads; why each exists is recorded
// on its definition, in BENCHMARK.json and in README.md.
var workloads = []workloadDef{
	{tpcbNative.name, tpcbNative.run},
	{htapScan.name, htapScan.run},
	{serveKV.name, serveKV.run},
	{"dev_pattern", runDevPattern},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// setupsPerRun is how often an untraced run sets up; setup_s is the
// median, so one slow build (cold caches, a host pause) does not decide
// it.
const setupsPerRun = 5

// minTailSamples is how many samples a quoted latency tail must rest
// on.
const minTailSamples = 10

// outcome is what one invocation reports for one workload.
type outcome struct {
	Workload  string        `json:"workload"`
	Traced    bool          `json:"traced"`
	Correct   bool          `json:"correct"`
	Attempted int64         `json:"attempted"`
	Failed    int64         `json:"failed"`
	Problems  []string      `json:"problems,omitempty"`
	Metrics   []metricValue `json:"metrics"`
	// Detail are supporting numbers that are not metrics of their own.
	Detail []metricValue `json:"detail,omitempty"`
	// SliceUs is host_us_per_op of every slice of the measure window, in
	// order (the metric is their median).
	SliceUs []float64 `json:"slice_us,omitempty"`
}

func (o *outcome) absorb(m *measured) {
	o.Attempted += m.rec.attempted
	o.Failed += m.rec.failed
	o.Problems = append(o.Problems, m.problems...)
}

// runUntraced measures the end-to-end metrics with telemetry off.
func runUntraced(w workloadDef, seed int64, seconds float64) (*outcome, error) {
	m, err := w.run(seed, seconds, false, setupsPerRun, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{Workload: w.name, Metrics: m.endToEnd(), Detail: m.detail(), SliceUs: m.sliceUs}
	o.absorb(m)
	if n := m.rec.ops(); n < 100*minTailSamples {
		o.Problems = append(o.Problems, fmt.Sprintf(
			"%d successful operations: the slowest 1%% must hold at least %d samples", n, minTailSamples))
	}
	o.Correct = len(o.Problems) == 0
	return o, nil
}

// runTraced produces the per-layer metrics: the workload once untraced
// and once with the whole observability stack on, each over half the
// window (so the pair fits the run length), plus the host probes. The
// pair gives the tracing overhead and shows that tracing moves no
// simulated number.
func runTraced(w workloadDef, seed int64, seconds float64, outDir string) (*outcome, error) {
	plain, err := w.run(seed, seconds/2, false, 1, nil)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	tr.begin("run")
	traced, err := w.run(seed, seconds/2, true, 1, tr)
	if err != nil {
		return nil, err
	}
	tr.end()
	c := traced.counters()
	tracePair(c, plain.endToEnd(), traced.endToEnd())
	runProbes(c)
	if err := tr.write(outDir, w.name); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	o := &outcome{Workload: w.name, Traced: true}
	for _, d := range perLayerDefs() {
		o.Metrics = append(o.Metrics, metricValue{d.name, d.unit, c[d.name]})
	}
	o.absorb(plain)
	o.absorb(traced)
	if c["telemetry.sim_perturbation"] != 0 {
		o.Problems = append(o.Problems, "tracing changed a simulated metric (telemetry.sim_perturbation != 0)")
	}
	o.Correct = len(o.Problems) == 0
	return o, nil
}

// resultLine is the contract's last line of output.
func resultLine(o *outcome) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, m := range o.Metrics {
		metrics[m.Name] = mv{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{o.Correct, max(o.Attempted, 1), o.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

func printOutcome(o *outcome) {
	kind := "end-to-end, telemetry off"
	if o.Traced {
		kind = "per-layer, traced pair + probes"
	}
	fmt.Printf("== %s (%s): attempted %d, failed %d\n", o.Workload, kind, o.Attempted, o.Failed)
	for _, m := range o.Metrics {
		fmt.Printf("%-44s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range o.Detail {
		fmt.Printf("  (%s %.6g %s)\n", m.Name, m.Value, m.Unit)
	}
	for _, p := range o.Problems {
		fmt.Printf("PROBLEM %s: %s\n", o.Workload, p)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: all, untraced then traced)")
		seed    = flag.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "run length: the measure window is sized to take about this long")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, telemetry off; 1: per-layer metrics from a traced pair of runs")
		outDir  = flag.String("out", "benchmark/out", "directory for result.json, traces and profiles (the only place written)")
		procs   = flag.Int("procs", 1, "GOMAXPROCS: the simulation runs one process at a time, so more only serves the garbage collector and makes wall time depend on a second idle core")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file name under -out")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file name under -out")
	)
	flag.Parse()
	selected, modes := workloads, []bool{false, true}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected, modes = []workloadDef{w}, []bool{*trace == 1}
	}
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [-out DIR]")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(*procs)
	fmt.Printf("benchmark: seed %d, %.3g s per run, GOMAXPROCS %d\n", *seed, *seconds, *procs)

	outcomes, err := runAll(selected, modes, *seed, *seconds, *outDir, *cpuProf, *memProf)
	if err == nil {
		err = writeJSON(filepath.Join(*outDir, "result.json"), struct {
			Seed     int64      `json:"seed"`
			Seconds  float64    `json:"seconds"`
			Procs    int        `json:"procs"`
			Outcomes []*outcome `json:"outcomes"`
		}{*seed, *seconds, *procs, outcomes})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if *name != "" {
		fmt.Println(resultLine(outcomes[0]))
	}
	for _, o := range outcomes {
		if !o.Correct {
			os.Exit(1)
		}
	}
}

// runAll runs every selected workload in every mode, printing as it
// goes, under the profiles asked for.
func runAll(selected []workloadDef, modes []bool, seed int64, seconds float64,
	outDir, cpuProf, memProf string) ([]*outcome, error) {
	if cpuProf != "" || memProf != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
	}
	if cpuProf != "" {
		f, err := os.Create(filepath.Join(outDir, cpuProf))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	var outcomes []*outcome
	for _, w := range selected {
		for _, traced := range modes {
			var o *outcome
			var err error
			if traced {
				o, err = runTraced(w, seed, seconds, outDir)
			} else {
				o, err = runUntraced(w, seed, seconds)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			printOutcome(o)
			outcomes = append(outcomes, o)
		}
	}
	if memProf != "" {
		f, err := os.Create(filepath.Join(outDir, memProf))
		if err != nil {
			return nil, err
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return outcomes, nil
}
