// Command noftlbench regenerates the paper's experiments.
//
// Usage:
//
//	noftlbench -exp fig3      # Figure 3: GC overhead FASTer vs NoFTL
//	noftlbench -exp fig4a     # Figure 4a: TPC-C db-writer association
//	noftlbench -exp fig4b     # Figure 4b: TPC-B db-writer association
//	noftlbench -exp headline  # abstract: NoFTL vs FASTer/DFTL/pagemap TPS
//	noftlbench -exp latency   # §3: random-write latency distribution
//	noftlbench -exp validate  # Demo 1: emulator validation
//	noftlbench -exp delta     # A5: in-place appends (delta writes) vs full pages
//	noftlbench -exp regions   # A6: configurable regions (WAL on a native log region)
//	noftlbench -exp sched     # A7: command scheduling (background GC, priority queues)
//	noftlbench -exp htap      # A8: HTAP — OLTP terminals vs analytical scans, pool policies
//	noftlbench -exp qos       # per-request QoS demo: two tagged tenants, split p99
//	noftlbench -exp serve     # serving front: record sessions + SLO-driven
//	                          #     admission control (no-control vs rate-limit
//	                          #     vs rate-limit+shed)
//	noftlbench -exp ablations # design-choice sweeps (A1-A4)
//	noftlbench -exp all
//
// One flag set serves every experiment: -dies, -drive-mb, -workers and
// -frames scale whichever experiment is selected (unset: that
// experiment's own default, simulation-friendly sizes). -json <path>
// writes machine-readable results for the TPS experiments, so perf
// trajectories can accumulate as BENCH_*.json files; -obs-dir <dir>
// turns the observability stack on and writes its artifacts under fixed
// names (see README).
//
// Exit status: 0 success, 1 an experiment failed, 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"noftl/internal/bench"
	"noftl/internal/serve"
	"noftl/internal/sim"
	"noftl/internal/telemetry"
	"noftl/internal/telemetry/blame"
)

func main() {
	// One simulated process runs at a time, as a coroutine this goroutine
	// resumes; a second P could only run the garbage collector beside it.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// app is one invocation: the parsed flags, where tables go, and the
// machine-readable report the experiments append to.
type app struct {
	out    io.Writer
	report *bench.JSONReport

	exp, jsonOut, diesArg  string
	cpuProfile, memProfile string

	seed         int64
	dies         []int // parsed diesArg
	workers      int
	driveMB      int
	measureS     int
	frames       int
	obsDir       string
	slowest      int
	qosLowDLms   int
	serveClients int
	serveRows    int
}

// experiments lists every -exp name in the order -exp all runs them.
var experiments = []struct {
	name string
	run  func(*app) error
}{
	{"fig3", (*app).fig3},
	{"fig4a", func(a *app) error { return a.fig4("tpcc") }},
	{"fig4b", func(a *app) error { return a.fig4("tpcb") }},
	{"headline", (*app).headline},
	{"latency", (*app).latency},
	{"validate", (*app).validate},
	{"delta", (*app).delta},
	{"regions", (*app).regions},
	{"sched", (*app).sched},
	{"htap", (*app).htap},
	{"qos", (*app).qos},
	{"serve", (*app).serve},
	{"ablations", (*app).ablations},
}

// flagSet registers the one flag set every experiment shares.
func (a *app) flagSet() *flag.FlagSet {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	fs := flag.NewFlagSet("noftlbench", flag.ContinueOnError)
	fs.StringVar(&a.exp, "exp", "all", "experiment: "+strings.Join(names, "|")+"|all")
	fs.StringVar(&a.jsonOut, "json", "", "write machine-readable results (TPS, WA, erases, bytes/tx, latency tails) to this path")
	fs.Int64Var(&a.seed, "seed", 42, "deterministic seed")
	fs.StringVar(&a.diesArg, "dies", "", "die count (empty: the experiment's own default); fig4a/fig4b sweep a comma list (default 1,2,4,8,16,32), which every other experiment ignores")
	fs.IntVar(&a.workers, "workers", 0, "client processes: OLTP terminals (0: the experiment's own default — 16, htap 12)")
	fs.IntVar(&a.driveMB, "drive-mb", 0, "drive capacity in MB (0: the experiment's own default — 192 for fig4/headline/delta, 64 elsewhere)")
	fs.IntVar(&a.measureS, "measure-s", 8, "measurement window, simulated seconds")
	fs.IntVar(&a.frames, "frames", 0, "buffer-pool frames (0: the experiment's own default)")
	fs.StringVar(&a.obsDir, "obs-dir", "", "turn the observability stack on for the sched/htap/qos/serve experiment and write the last mode's artifacts into this directory: trace.json metrics.json, plus blame.json blame.folded (sched/htap/qos; speedscope.app opens blame.folded) and health.json (sched)")
	fs.IntVar(&a.slowest, "slowest", 16, "flight-recorder / blame retention: slowest K transactions (with -obs-dir)")
	fs.IntVar(&a.qosLowDLms, "qos-low-deadline-ms", 0, "stamp the qos demo's low tenant with this completion deadline (ms; 0: off) so its SLO misses are measured and blame-attributed")
	fs.IntVar(&a.serveClients, "serve-clients", 0, "total sessions for the serve ablation, split 1:3 paying:batch (0: default 800)")
	fs.IntVar(&a.serveRows, "serve-rows", 0, "per-store record count for the serve ablation (0: default 16384)")
	fs.StringVar(&a.cpuProfile, "cpuprofile", "", "write a CPU profile to this path")
	fs.StringVar(&a.memProfile, "memprofile", "", "write a heap profile to this path on exit")
	return fs
}

func run(args []string, stdout, stderr io.Writer) int {
	a := &app{out: stdout}
	fs := a.flagSet()
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := a.exp == "all"
	for _, e := range experiments {
		known = known || e.name == a.exp
	}
	if !known || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "noftlbench: unknown experiment %q or stray arguments %q\n", a.exp, fs.Args())
		fs.Usage()
		return 2
	}
	for _, f := range strings.Split(a.diesArg, ",") {
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			fmt.Fprintf(stderr, "noftlbench: -dies %q: want a positive integer or a comma list of them\n", a.diesArg)
			return 2
		}
		a.dies = append(a.dies, n)
	}
	if a.obsDir != "" {
		if err := os.MkdirAll(a.obsDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "noftlbench:", err)
			return 1
		}
	}

	if a.cpuProfile != "" {
		f, err := os.Create(a.cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if a.memProfile != "" {
		defer func() {
			runtime.GC()
			if err := writeFile(a.memProfile, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	a.report = &bench.JSONReport{Seed: a.seed}
	for _, e := range experiments {
		if a.exp != "all" && a.exp != e.name {
			continue
		}
		fmt.Fprintf(stdout, "=== %s ===\n", e.name)
		if err := e.run(a); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	if a.jsonOut != "" {
		if err := a.report.Write(a.jsonOut); err != nil {
			fmt.Fprintf(stderr, "json: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d results to %s\n", len(a.report.Results), a.jsonOut)
	}
	return 0
}

func (a *app) printf(format string, args ...any) { fmt.Fprintf(a.out, format, args...) }

// params is the shared flag set as an experiment parameter block. A
// -dies list belongs to the fig4 sweep; a single value scales every
// experiment.
func (a *app) params() bench.Params {
	p := bench.Params{
		DriveMB: a.driveMB,
		Workers: a.workers,
		Frames:  a.frames,
		Measure: sim.Time(a.measureS) * sim.Second,
		Seed:    a.seed,
	}
	if len(a.dies) == 1 {
		p.Dies = a.dies[0]
	}
	return p
}

// observed is params plus, under -obs-dir, the observability stack: the
// telemetry pipeline with span retention, the command timeline the
// Perfetto export draws from, and — where the experiment has request
// classes to blame — the root-cause engine.
func (a *app) observed(withBlame bool) bench.Params {
	p := a.params()
	if a.obsDir == "" {
		return p
	}
	p.Telemetry = &telemetry.Config{SlowestK: a.slowest, RetainSpans: true}
	if withBlame {
		p.Blame = &blame.Config{SlowestK: a.slowest}
	}
	return p
}

// export prints one run's observability summaries and, under -obs-dir,
// writes whatever artifacts the run produced under their fixed names.
func (a *app) export(name string, o *bench.Observed) error {
	if o.Tel != nil {
		a.printf("flight recorder (%s): slowest transactions by layer\n%s", name, o.Tel.SlowestTable())
	}
	if o.Blame != nil {
		a.printf("blame matrix (%s): top victim x culprit interference\n%s", name, o.Blame.TopTable(12))
		a.printf("slowest spans (%s) with blame attribution:\n%s", name, o.Blame.SlowestTable(8))
	}
	if a.obsDir == "" {
		return nil
	}
	var err error
	write := func(file string, fn func(io.Writer) error) {
		if err != nil {
			return
		}
		path := filepath.Join(a.obsDir, file)
		if err = writeFile(path, fn); err == nil {
			a.printf("wrote %s (%s)\n", path, name)
		}
	}
	if tel := o.Tel; tel != nil {
		// -exp serve runs telemetry without blame, so without a command log.
		write("trace.json", func(w io.Writer) error { return telemetry.WriteTrace(w, o.CmdLog, tel.Spans()) })
		write("metrics.json", tel.WriteMetrics)
	}
	if rep := o.Blame; rep != nil {
		write("blame.json", rep.WriteJSON)
		write("blame.folded", rep.WriteFolded)
	}
	if h := o.Health; h != nil {
		write("health.json", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			return enc.Encode(h)
		})
	}
	return err
}

func (a *app) fig3() error {
	res, err := bench.Figure3(bench.Fig3Config{Seed: a.seed})
	if err != nil {
		return err
	}
	a.printf("Figure 3: GC overhead of FASTer vs NoFTL (off-line trace replay)\n%s", res.Table())
	a.printf("\nLongevity (§5): NoFTL lifetime factor = relative erase reduction:\n")
	for _, row := range res.Rows {
		a.printf("  %-6s %.2fx\n", row.Workload, row.RelativeErase)
	}
	return nil
}

func (a *app) fig4(wl string) error {
	res, err := bench.Figure4(bench.Fig4Config{Params: a.params(), Workload: wl, Sweep: a.dies})
	if err != nil {
		return err
	}
	a.printf("Figure 4 (%s): TPS vs dies, global vs die-wise db-writers\n%s", wl, res.Table())
	a.printf("max die-wise speedup: %.2fx\n", res.DieWiseSpeedup())
	return nil
}

func (a *app) headline() error {
	for _, wl := range []string{"tpcc", "tpcb"} {
		res, err := bench.Headline(bench.HeadlineConfig{Params: a.params(), Workload: wl})
		if err != nil {
			return err
		}
		a.printf("Headline (%s): end-to-end TPS by storage stack\n%s", wl, res.Table())
		res.AddTo(a.report)
		a.printf("NoFTL vs FASTer: %.2fx   pagemap vs DFTL: %.2fx\n\n",
			res.Ratio("noftl", "faster", bench.TPS), res.Ratio("pagemap", "dftl", bench.TPS))
	}
	return nil
}

func (a *app) latency() error {
	res, err := bench.Latency(bench.LatencyConfig{Seed: a.seed})
	if err != nil {
		return err
	}
	a.printf("§3: 4KB random-write latency (high utilisation)\n%s", res.Table())
	return nil
}

func (a *app) validate() error {
	res, err := bench.Validate(bench.ValidateConfig{Seed: a.seed})
	if err != nil {
		return err
	}
	a.printf("Demo 1: emulator timing vs analytic model (queue depth 1)\n%s", res.Table())
	a.printf("max model error: %.3f%%\n", res.MaxErrorPct())
	a.printf("random-read IOPS scaling with dies:\n")
	for _, sc := range res.Scaling {
		a.printf("  %2d dies: %.0f IOPS\n", sc.Dies, sc.IOPS)
	}
	return nil
}

func (a *app) delta() error {
	for _, wl := range []string{"tpcb", "tpcc"} {
		res, err := bench.DeltaAblation(bench.DeltaConfig{Params: a.params(), Workload: wl})
		if err != nil {
			return err
		}
		a.printf("Ablation A5 (%s): in-place appends (delta writes) vs full-page NoFTL vs FTL\n%s", wl, res.Table())
		a.printf("delta-NoFTL programs %.0f%% of full-page NoFTL's flash bytes per tx\n\n",
			100*res.Ratio("noftl-delta", "noftl", (*bench.RunResult).BytesPerTx))
		res.AddTo(a.report)
	}
	return nil
}

func (a *app) regions() error {
	for _, wl := range []string{"tpcb", "tpcc"} {
		res, err := bench.RegionsAblation(bench.RegionsConfig{Params: a.params(), Workload: wl})
		if err != nil {
			return err
		}
		a.printf("Ablation A6 (%s): single-policy NoFTL vs region-managed placement (WAL on log region)\n%s", wl, res.Table())
		if rt := res.RegionTable(); rt != "" {
			a.printf("per-region breakdown (noftl-regions):\n%s", rt)
		}
		regions, single := res.Row("noftl-regions").Result.FTL, res.Row("noftl-single").Result.FTL
		a.printf("regions vs single-policy: %.2fx erases, WA %+.3f, %.2fx TPS\n\n",
			res.Ratio("noftl-regions", "noftl-single", (*bench.RunResult).ErasesPerKTx),
			regions.WriteAmplification()-single.WriteAmplification(),
			res.Ratio("noftl-regions", "noftl-single", bench.TPS))
		res.AddTo(a.report)
	}
	return nil
}

func (a *app) sched() error {
	res, err := bench.SchedAblation(bench.SchedConfig{Params: a.observed(true), Workload: "tpcb"})
	if err != nil {
		return err
	}
	a.printf("Ablation A7 (tpcb): inline GC vs background GC vs priority scheduling\n%s", res.Table())
	a.printf("\nper-class queue waits:\n%s", res.WaitTable())
	a.printf("bg-gc+prio vs inline-gc: %.2fx TPS, %.2fx p99 commit, %.2fx p99 read\n\n",
		res.Ratio("bg-gc+prio", "inline-gc", bench.TPS),
		res.Ratio("bg-gc+prio", "inline-gc", bench.CommitP99),
		res.Ratio("bg-gc+prio", "inline-gc", bench.ReadP99))
	res.AddTo(a.report)
	if a.obsDir != "" {
		a.printf("device health:\n%s", res.HealthTable())
	}
	// Export the last mode's run: the fully scheduled regime.
	last := &res.Rows[len(res.Rows)-1]
	return a.export(last.Name, &last.Observed)
}

func (a *app) htap() error {
	res, err := bench.HTAPAblation(bench.HTAPConfig{Params: a.observed(true)})
	if err != nil {
		return err
	}
	a.printf("Ablation A8 (tpcb+tpch): naive shared pool vs scan-resistant vs scan-resistant + prefetch\n%s", res.Table())
	a.printf("scan-resist+prefetch vs naive: %.2fx OLTP TPS, %.2fx p99 commit, %.2fx scan rows/s\n\n",
		res.Ratio("scan-resist+prefetch", "naive", bench.TPS),
		res.Ratio("scan-resist+prefetch", "naive", bench.CommitP99),
		res.Ratio("scan-resist+prefetch", "naive", bench.ScanRowsPerS))
	res.AddTo(a.report)
	last := &res.Rows[len(res.Rows)-1]
	return a.export(last.Name, &last.Observed)
}

func (a *app) qos() error {
	res, err := bench.QoS(bench.QoSConfig{Params: a.observed(true),
		LowDeadline: sim.Time(a.qosLowDLms) * sim.Millisecond})
	if err != nil {
		return err
	}
	a.printf("Per-request QoS: two TPC-B tenants, one declared low-priority\n%s", res.Table())
	a.printf("p99 commit split low/high: %.2fx\n\n", res.P99Ratio())
	if res.Blame != nil {
		if cs, ok := res.Blame.DominantMissedCulprit(bench.TagLowPriority); ok {
			a.printf("low tenant's dominant latency culprit behind missed deadlines: %s (%.0f%% of blamed wait)\n",
				cs.Class, 100*cs.Share)
			a.printf("low tenant's missed-deadline wait by culprit class:\n")
			for _, cs := range res.Blame.MissedShares(bench.TagLowPriority) {
				a.printf("  %-8s %5.1f%%\n", cs.Class, 100*cs.Share)
			}
		}
	}
	res.AddTo(a.report)
	return a.export("qos", &res.Observed)
}

func (a *app) serve() error {
	p := a.observed(false)
	p.Workers = a.serveClients
	res, err := bench.Serve(bench.ServeConfig{Params: p, Rows: int64(a.serveRows)})
	if err != nil {
		return err
	}
	a.printf("Serving front: record sessions under admission control\n")
	a.printf("(uncontended reference, then no-control vs rate-limit vs rate-limit+shed)\n%s", res.Table())
	protection := func(regime string) float64 {
		return res.Ratio(regime, "uncontended", bench.PayingCommitP99)
	}
	a.printf("paying p99 vs uncontended: no-control %.2fx, rate-limit %.2fx, rate-limit+shed %.2fx\n",
		protection(serve.ControlNone.String()),
		protection(serve.ControlRateLimit.String()),
		protection(serve.ControlFull.String()))
	full := res.Row(serve.ControlFull.String())
	st := full.Front.Stats()
	a.printf("full regime: %d admitted, %d deprioritized, %d shed\n\n", st.Admitted, st.Deprioritized, st.Shed)
	res.AddTo(a.report)
	// The serving front always carries telemetry (the burn guard needs
	// it); its summaries print only when observability was asked for.
	if a.obsDir == "" {
		return nil
	}
	return a.export(full.Name, &full.Observed)
}

func (a *app) ablations() error {
	for _, f := range []func(int64) (*bench.AblationResult, error){
		bench.AblationGCPolicy, bench.AblationDFTLCMT,
		bench.AblationFasterLog, bench.AblationOverProvision,
	} {
		res, err := f(a.seed)
		if err != nil {
			return err
		}
		a.printf("ablation: %s\n%s\n", res.Name, res.Table())
	}
	return nil
}

// writeFile creates path and hands it to write; the first error of
// write and Close wins.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
