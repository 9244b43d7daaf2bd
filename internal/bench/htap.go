package bench

import (
	"fmt"

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

// HTAPMode names one pool/read policy of the ablation.
type HTAPMode string

// The three policies.
const (
	HTAPNaive    HTAPMode = "naive"
	HTAPScanRes  HTAPMode = "scan-resist"
	HTAPPrefetch HTAPMode = "scan-resist+prefetch"
)

// htapPrefetchWindow is the prefetch mode's read-ahead depth in pages.
const htapPrefetchWindow = 16

// HTAPConfig parameterizes the HTAP ablation. Params.Workers is the
// OLTP terminal count.
type HTAPConfig struct {
	Params
	Modes   []HTAPMode // default: all three
	Readers int        // analytical reader processes, default 2

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
	// Seed or Filler survives.
	TPCH workload.TPCHConfig
}

// HTAPRow is one policy's measurement: the OLTP stream and the pool and
// device accounting in Result (Result.Window is the pool over the
// measure window), the analytical stream beside it.
type HTAPRow struct {
	Mode   HTAPMode
	Result RunResult

	// Analytical stream.
	QPS       float64 // analytical queries per second
	Queries   int64
	RowsPerS  float64 // rows visited per second
	QueryHist stats.Histogram

	Occupancy float64
	Observed
}

// HTAPResult is the ablation outcome.
type HTAPResult struct {
	Rows []HTAPRow
}

func (r *HTAPResult) row(m HTAPMode) *HTAPRow {
	for i := range r.Rows {
		if r.Rows[i].Mode == m {
			return &r.Rows[i]
		}
	}
	return nil
}

func (r *HTAPResult) ratio(f func(*HTAPRow) float64) float64 {
	base, full := r.row(HTAPNaive), r.row(HTAPPrefetch)
	if base == nil || full == nil || f(base) == 0 {
		return 0
	}
	return f(full) / f(base)
}

// TPSRatio is the full stack's OLTP TPS over the naive pool's (>= 1
// means scan resistance + prefetch held the OLTP stream).
func (r *HTAPResult) TPSRatio() float64 {
	return r.ratio(func(row *HTAPRow) float64 { return row.Result.TPS })
}

// ScanRatio is the full stack's analytical rows/s over the naive
// pool's.
func (r *HTAPResult) ScanRatio() float64 {
	return r.ratio(func(row *HTAPRow) float64 { return row.RowsPerS })
}

// CommitP99Ratio is the full stack's p99 commit latency over the naive
// pool's (< 1 means a shorter commit tail under the same scan load).
func (r *HTAPResult) CommitP99Ratio() float64 {
	return r.ratio(func(row *HTAPRow) float64 {
		return float64(row.Result.CommitHist.Percentile(99))
	})
}

// Table renders the per-stream comparison.
func (r *HTAPResult) Table() string {
	t := stats.NewTable("mode", "oltp TPS", "commit p50", "p99",
		"scan q/s", "rows/s", "query p50", "p99", "hit%", "ghost", "prefetch", "occ")
	for i := range r.Rows {
		row := &r.Rows[i]
		c, q, pool := &row.Result.CommitHist, &row.QueryHist, &row.Result.Window
		t.Row(string(row.Mode), row.Result.TPS,
			c.Percentile(50).String(), c.Percentile(99).String(),
			fmt.Sprintf("%.2f", row.QPS), fmt.Sprintf("%.0f", row.RowsPerS),
			q.Percentile(50).String(), q.Percentile(99).String(),
			fmt.Sprintf("%.1f", 100*pool.HitRate()),
			pool.GhostHits, pool.Prefetches,
			fmt.Sprintf("%.0f%%", 100*row.Occupancy))
	}
	return t.String()
}

// AddTo appends the ablation's rows to a machine-readable report: the
// OLTP stream under the common fields, the analytical stream and pool
// policy accounting under the scan/buffer fields.
func (r *HTAPResult) AddTo(rep *JSONReport) {
	for i := range r.Rows {
		row, pool := &r.Rows[i], &r.Rows[i].Result.Window
		jr := JSONResult{Experiment: "htap", Workload: "tpcb+tpch",
			Stack: string(system.StackNoFTLRegions), Mode: string(row.Mode),
			ScanQPS:      row.QPS,
			ScanRowsPerS: row.RowsPerS,
			ScanP50us:    us(row.QueryHist.Percentile(50)),
			ScanP99us:    us(row.QueryHist.Percentile(99)),
			BufferHit:    pool.HitRate(),
			GhostHits:    pool.GhostHits,
			Prefetches:   pool.Prefetches,
			PrefetchHits: pool.PrefetchHits,
		}
		jr.setObserved(&row.Observed)
		rep.Add(jr, &row.Result)
	}
}

// HTAPAblation runs the sweep: one freshly built region-managed,
// priority-scheduled system per pool policy, same seed, same workloads:
// OLTP terminals and analytical readers run concurrently next to
// db-writers, the checkpointer, flash maintenance workers and — when
// the engine has a prefetch window — the read-ahead prefetchers.
func HTAPAblation(cfg HTAPConfig) (*HTAPResult, error) {
	cfg.Params = cfg.Params.withDefaults("htap")
	if len(cfg.Modes) == 0 {
		cfg.Modes = []HTAPMode{HTAPNaive, HTAPScanRes, HTAPPrefetch}
	}
	cfg.Readers = orDefault(cfg.Readers, 2)
	if cfg.TPCH.ScaleFactor == 0 {
		cfg.TPCH.ScaleFactor = 2
	}
	if cfg.TPCH.Seed == 0 {
		cfg.TPCH.Seed = cfg.Seed
	}
	res := &HTAPResult{}
	for _, mode := range cfg.Modes {
		opts := []system.Option{system.WithPriorityScheduler(), system.WithBackgroundGC()}
		switch mode {
		case HTAPScanRes:
			opts = append(opts, system.WithScanResistance())
		case HTAPPrefetch:
			opts = append(opts, system.WithScanResistance(), system.WithPrefetch(htapPrefetchWindow))
		}
		sys, log, err := cfg.build(system.StackNoFTLRegions, opts...)
		if err != nil {
			return nil, fmt.Errorf("htap ablation %s: %w", mode, err)
		}
		tpcb := cfg.TPCB
		if tpcb.Branches == 0 {
			tpcb = deriveTPCB(sys.NoFTL.LogicalPages(), 0.30)
		}
		oltp, scan := workload.NewTPCB(tpcb), workload.NewTPCH(cfg.TPCH)
		r, err := execute(sys, run{
			name: fmt.Sprintf("htap %s+%s on %s", oltp.Name(), scan.Name(), sys.Stack),
			load: func(sys *system.System) error {
				if err := oltp.Load(sys.Ctx, sys.Engine); err != nil {
					return err
				}
				return scan.Load(sys.Ctx, sys.Engine)
			},
			start: append(background(storage.WriterConfig{N: cfg.Writers, Association: storage.AssocDieWise}),
				terminals("oltp", oltp, workload.TerminalConfig{N: cfg.Workers, Seed: cfg.Seed}),
				readers("scan", scan, cfg.Readers, cfg.Seed),
				stdCheckpointer(false)),
			warm:       cfg.Warm,
			measure:    cfg.Measure,
			trackReads: true,
			fault:      cfg.fault,
		})
		if err != nil {
			return nil, fmt.Errorf("htap ablation %s: %w", mode, err)
		}
		g, secs := r.Group("scan"), cfg.Measure.Seconds()
		row := HTAPRow{Mode: mode, Result: *r, Occupancy: occupancy(sys),
			Queries: g.Queries, QPS: float64(g.Queries) / secs,
			RowsPerS: float64(g.Rows) / secs, QueryHist: g.QueryHist}
		if row.Observed, err = observe(sys, log); err != nil {
			return nil, fmt.Errorf("htap ablation %s: %w", mode, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
