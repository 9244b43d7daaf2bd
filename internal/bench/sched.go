package bench

import (
	"fmt"

	"noftl/internal/sched"
	"noftl/internal/sim"
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
//     NeedsGC/GCStep, whose collections also level wear) take
//     maintenance off the commit path; dispatch stays FCFS.
//   - bg-gc+prio: background maintenance plus the priority scheduler —
//     foreground reads > WAL appends > data programs > GC, with erase
//     suspension so a read never waits out a full tBERS.
//
// In every regime a command dispatches at the class its request declares
// (package ioreq), else at its op type's class; the db-writers and the
// checkpointer declare themselves background at the origin.
//
// The ablation reports TPS and the commit/read latency distributions
// (p50/p95/p99), which is where scheduling shows up: means barely move,
// tails collapse.

// SchedConfig parameterizes the scheduling ablation. The default 64 MB
// drive lands the derived TPC-B data around 80% occupancy of the data
// region — the regime where GC runs constantly and scheduling decides
// who waits for it.
type SchedConfig struct {
	Params
	// Workload is "tpcb" (default; sized per geometry to ~68% of the
	// data region at load) or "tpcc" (4 warehouses).
	Workload string
	//noftl:ignore setter run scale: tests run one row to stay fast
	Modes []string // the regimes to run, by row name (default: all three)
}

// SchedAblation runs the regimes: one freshly built region-managed
// system each, same seed, same workload. Its ratios: bg-gc+prio over
// inline-gc TPS and p99 commit and read latency (< 1: the scheduled
// stack has the shorter tail).
func SchedAblation(cfg SchedConfig) (*Rows, error) {
	cfg.Params = cfg.Params.withDefaults("sched")
	if cfg.Workload == "" {
		cfg.Workload = "tpcb"
	}
	run := func(sys *system.System) (*RunResult, error) {
		wl := oltpWorkload(cfg.Workload, deriveTPCB(sys.NoFTL.LogicalPages(), 0.68),
			workload.TPCCConfig{Warehouses: 4})
		return RunTPS(sys, wl, TPSConfig{
			Workers:     cfg.Workers,
			Writers:     cfg.Writers,
			Association: storage.AssocDieWise,
			Warm:        cfg.Warm,
			Measure:     cfg.Measure,
			Seed:        cfg.Seed,
			fault:       cfg.fault,
		})
	}
	fcfs := system.WithScheduler(sched.FCFS)
	prio := []system.Option{system.WithPriorityScheduler(), system.WithBackgroundGC()}
	regions := system.StackNoFTLRegions
	return cfg.runVariants("sched", cfg.Workload, only(cfg.Modes, []variant{
		{"inline-gc", regions, []system.Option{fcfs}, run},
		{"bg-gc", regions, []system.Option{fcfs, system.WithBackgroundGC()}, run},
		{"bg-gc+prio", regions, prio, run},
	}))
}

func schedTable(r *Rows) string {
	t := stats.NewTable("mode", "TPS", "commit p50", "p95", "p99",
		"read p50", "p95", "p99", "erases", "suspends", "gcSteps", "occ")
	for _, row := range r.Rows {
		c, rd := &row.Result.CommitHist, &row.Result.ReadHist
		t.Row(row.Name, row.Result.TPS,
			c.Percentile(50).String(), c.Percentile(95).String(), c.Percentile(99).String(),
			rd.Percentile(50).String(), rd.Percentile(95).String(), rd.Percentile(99).String(),
			row.Result.Device.Erases, row.Result.Sched.EraseSuspends,
			row.Result.GCSteps, fmt.Sprintf("%.0f%%", 100*row.Occupancy))
	}
	return t.String()
}

// schedExtras fills the scheduler columns — mean queue wait over every
// dispatched command, erase suspensions, deadline promotions. They are
// extras rather than common fields because only the sched experiment's
// rows have ever carried them.
func schedExtras(row *Row, jr *JSONResult) {
	st := &row.Result.Sched
	if n := st.TotalScheduled(); n > 0 {
		var total sim.Time
		for _, w := range st.QueueWait {
			total += w
		}
		jr.QueueWaitMeanUs = us(total / sim.Time(n))
	}
	jr.EraseSuspends = st.EraseSuspends
	jr.DeadlinePromotions = st.DeadlinePromotions
}

// WaitTable renders per-class queue waits of the scheduled rows.
func (r *Rows) WaitTable() string {
	t := stats.NewTable("mode", "class", "cmds", "mean wait", "max wait")
	for _, row := range r.Rows {
		st := row.Result.Sched
		for c := sched.Class(0); c < sched.NumClasses; c++ {
			if st.Scheduled[c] == 0 {
				continue
			}
			t.Row(row.Name, c.String(), st.Scheduled[c],
				st.MeanWait(c).String(), st.MaxWait[c].String())
		}
	}
	return t.String()
}

// HealthTable renders the observed rows' device summary: wear
// distribution and data-region GC efficiency.
func (r *Rows) HealthTable() string {
	t := stats.NewTable("mode", "wear spread", "wear p99", "bad", "occ",
		"valid-copy", "WA")
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
		t.Row(row.Name, h.Wear.Spread, h.Wear.P99, h.Wear.BadBlocks,
			fmt.Sprintf("%.0f%%", 100*occ), fmt.Sprintf("%.2f", vcr),
			fmt.Sprintf("%.2f", wa))
	}
	return t.String()
}
