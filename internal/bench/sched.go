package bench

import (
	"fmt"

	"noftl/internal/sched"
	"noftl/internal/stats"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// SchedAblation (A7) isolates the command-scheduling design on the
// region-managed NoFTL stack: the same multi-terminal workload runs at
// matched occupancy under three maintenance/scheduling regimes:
//
//   - inline-gc: GC fires at the low-water mark on the allocating
//     (commit/flush) path; commands dispatch FCFS per die — the closest
//     native-flash analog of firmware-FTL behavior.
//   - bg-gc: dedicated background GC workers (sim.Procs driving
//     NeedsGC/GCStep) plus the wear-leveling sweep take maintenance off
//     the commit path; dispatch stays FCFS.
//   - bg-gc+prio: background maintenance plus the priority scheduler —
//     foreground reads > WAL appends > data programs > GC, with erase
//     suspension so a read never waits out a full tBERS.
//   - bg-gc+prio+tagged: the priority scheduler dispatching on
//     per-request descriptors (package ioreq) instead of static
//     per-volume class routing: db-writers and the checkpointer declare
//     themselves background at the origin, so the log traffic they
//     induce stops outranking commit-path appends just because it
//     shares the WAL device view.
//
// The ablation reports TPS and the commit/read latency distributions
// (p50/p95/p99), which is where scheduling shows up: means barely move,
// tails collapse.

// SchedMode names one regime of the ablation.
type SchedMode string

// The four regimes.
const (
	SchedInline     SchedMode = "inline-gc"
	SchedBackground SchedMode = "bg-gc"
	SchedPriority   SchedMode = "bg-gc+prio"
	// SchedTagged is SchedPriority with per-request descriptors: the
	// static-ClassDevs-vs-per-request-tags ablation column.
	SchedTagged SchedMode = "bg-gc+prio+tagged"
)

// SchedConfig parameterizes the scheduling ablation. The default 64 MB
// drive lands the derived TPC-B data around 80% occupancy of the data
// region — the regime where GC runs constantly and scheduling decides
// who waits for it.
type SchedConfig struct {
	Params
	// Workload is "tpcb" (default; sized per geometry to ~68% of the
	// data region at load) or "tpcc" (4 warehouses).
	Workload string
	Modes    []SchedMode // default: all four
}

// SchedRow is one regime's measurement.
type SchedRow struct {
	Mode      SchedMode
	Result    RunResult
	Occupancy float64 // data-region live fraction at the end of the run
	Observed
}

// SchedResult is the ablation outcome.
type SchedResult struct {
	Workload string
	Rows     []SchedRow
}

func (r *SchedResult) row(m SchedMode) *SchedRow {
	for i := range r.Rows {
		if r.Rows[i].Mode == m {
			return &r.Rows[i]
		}
	}
	return nil
}

func (r *SchedResult) ratio(f func(*SchedRow) float64) float64 {
	base, prio := r.row(SchedInline), r.row(SchedPriority)
	if base == nil || prio == nil || f(base) == 0 {
		return 0
	}
	return f(prio) / f(base)
}

// CommitP99Ratio is bg-gc+prio p99 commit latency over inline-gc's
// (< 1 means the scheduled stack has a shorter commit tail).
func (r *SchedResult) CommitP99Ratio() float64 {
	return r.ratio(func(row *SchedRow) float64 {
		return float64(row.Result.CommitHist.Percentile(99))
	})
}

// ReadP99Ratio is bg-gc+prio p99 read latency over inline-gc's.
func (r *SchedResult) ReadP99Ratio() float64 {
	return r.ratio(func(row *SchedRow) float64 {
		return float64(row.Result.ReadHist.Percentile(99))
	})
}

// TPSRatio is bg-gc+prio TPS over inline-gc TPS.
func (r *SchedResult) TPSRatio() float64 {
	return r.ratio(func(row *SchedRow) float64 { return row.Result.TPS })
}

// TaggedCommitP99Ratio is bg-gc+prio+tagged p99 commit latency over
// plain bg-gc+prio's — what dispatching on per-request descriptors buys
// over static per-volume class routing (< 1: shorter commit tail).
func (r *SchedResult) TaggedCommitP99Ratio() float64 {
	base, tagged := r.row(SchedPriority), r.row(SchedTagged)
	if base == nil || tagged == nil || base.Result.CommitHist.Percentile(99) == 0 {
		return 0
	}
	return float64(tagged.Result.CommitHist.Percentile(99)) /
		float64(base.Result.CommitHist.Percentile(99))
}

// Table renders the regime comparison.
func (r *SchedResult) Table() string {
	t := stats.NewTable("mode", "TPS", "commit p50", "p95", "p99",
		"read p50", "p95", "p99", "erases", "suspends", "gcSteps", "occ")
	for _, row := range r.Rows {
		c, rd := &row.Result.CommitHist, &row.Result.ReadHist
		t.Row(string(row.Mode), row.Result.TPS,
			c.Percentile(50).String(), c.Percentile(95).String(), c.Percentile(99).String(),
			rd.Percentile(50).String(), rd.Percentile(95).String(), rd.Percentile(99).String(),
			row.Result.Device.Erases, row.Result.Sched.EraseSuspends,
			row.Result.GCSteps, fmt.Sprintf("%.0f%%", 100*row.Occupancy))
	}
	return t.String()
}

// WaitTable renders per-class queue waits of the scheduled regimes.
func (r *SchedResult) WaitTable() string {
	t := stats.NewTable("mode", "class", "cmds", "mean wait", "max wait")
	for _, row := range r.Rows {
		st := row.Result.Sched
		for c := sched.Class(0); c < sched.NumClasses; c++ {
			if st.Scheduled[c] == 0 {
				continue
			}
			t.Row(string(row.Mode), c.String(), st.Scheduled[c],
				st.MeanWait(c).String(), st.MaxWait[c].String())
		}
	}
	return t.String()
}

// HealthTable renders the health-enabled regimes' device summary:
// wear distribution, data-region GC efficiency and alert count.
func (r *SchedResult) HealthTable() string {
	t := stats.NewTable("mode", "wear spread", "wear p99", "bad", "occ",
		"valid-copy", "WA", "alerts")
	for _, row := range r.Rows {
		h := row.Health
		if h == nil {
			continue
		}
		occ, vcr, wa := 0.0, 0.0, 0.0
		for _, reg := range h.Regions {
			if reg.Mapping == "page" {
				occ, vcr, wa = reg.Occupancy, reg.GC.ValidCopyRatio, reg.GC.WA
			}
		}
		t.Row(string(row.Mode), h.Wear.Spread, h.Wear.P99, h.Wear.BadBlocks,
			fmt.Sprintf("%.0f%%", 100*occ), fmt.Sprintf("%.2f", vcr),
			fmt.Sprintf("%.2f", wa), len(h.Alerts))
	}
	return t.String()
}

// AlertTable renders every health-enabled regime's SLO transitions.
func (r *SchedResult) AlertTable() string {
	t := stats.NewTable("mode", "t", "rule", "sev", "state", "value", "threshold")
	for _, row := range r.Rows {
		if row.Health == nil {
			continue
		}
		for _, a := range row.Health.Alerts {
			t.Row(string(row.Mode), a.TNs.String(), a.Rule, a.Severity, a.State,
				fmt.Sprintf("%.3g", a.Value), fmt.Sprintf("%.3g", a.Threshold))
		}
	}
	return t.String()
}

// AddTo appends the ablation's rows to a machine-readable report,
// including the scheduler accounting the experiment is about.
func (r *SchedResult) AddTo(rep *JSONReport) {
	for i := range r.Rows {
		row := &r.Rows[i]
		jr := JSONResult{Experiment: "sched", Workload: r.Workload,
			Stack: string(system.StackNoFTLRegions), Mode: string(row.Mode)}
		jr.setSchedAccounting(&row.Result)
		jr.setObserved(&row.Observed)
		rep.Add(jr, &row.Result)
	}
}

// SchedAblation runs the sweep: one freshly built region-managed system
// per regime, same seed, same workload.
func SchedAblation(cfg SchedConfig) (*SchedResult, error) {
	cfg.Params = cfg.Params.withDefaults("sched")
	if cfg.Workload == "" {
		cfg.Workload = "tpcb"
	}
	if len(cfg.Modes) == 0 {
		cfg.Modes = []SchedMode{SchedInline, SchedBackground, SchedPriority, SchedTagged}
	}
	res := &SchedResult{Workload: cfg.Workload}
	for _, mode := range cfg.Modes {
		opts := []system.Option{system.WithScheduler(sched.Config{Policy: sched.FCFS})}
		switch mode {
		case SchedBackground:
			opts = append(opts, system.WithBackgroundGC())
		case SchedPriority, SchedTagged:
			opts = []system.Option{system.WithPriorityScheduler(), system.WithBackgroundGC()}
		}
		sys, log, err := cfg.build(system.StackNoFTLRegions, opts...)
		if err != nil {
			return nil, fmt.Errorf("sched ablation %s: %w", mode, err)
		}
		wl := oltpWorkload(cfg.Workload, deriveTPCB(sys.NoFTL.LogicalPages(), 0.68),
			workload.TPCCConfig{Warehouses: 4})
		r, err := RunTPS(sys, wl, TPSConfig{
			Workers:     cfg.Workers,
			Writers:     cfg.Writers,
			Association: storage.AssocDieWise,
			Warm:        cfg.Warm,
			Measure:     cfg.Measure,
			Seed:        cfg.Seed,
			Tagged:      mode == SchedTagged,
			fault:       cfg.fault,
		})
		if err != nil {
			return nil, fmt.Errorf("sched ablation %s: %w", mode, err)
		}
		row := SchedRow{Mode: mode, Result: *r, Occupancy: occupancy(sys)}
		if row.Observed, err = observe(sys, log); err != nil {
			return nil, fmt.Errorf("sched ablation %s: %w", mode, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
