package bench

import (
	"encoding/json"
	"os"

	"noftl/internal/sim"
)

// Machine-readable experiment results: noftlbench -json <path> collects
// one JSONResult per (experiment, workload, stack) so perf trajectories
// (BENCH_*.json files) can accumulate across commits and be diffed by
// tooling instead of eyeballs.

// JSONResult is one measurement in the report.
type JSONResult struct {
	Experiment string  `json:"experiment"`
	Workload   string  `json:"workload"`
	Stack      string  `json:"stack"`
	Mode       string  `json:"mode,omitempty"` // the row's regime, policy or tenant (absent on stack sweeps)
	TPS        float64 `json:"tps"`
	WA         float64 `json:"wa"`
	Erases     int64   `json:"erases"`
	// BytesPerTx is RunResult.BytesPerTx (see there for its window
	// convention); WA, Erases and BytesPerTx are zero on per-tenant rows
	// (qos), which carry no device counters.
	BytesPerTx float64 `json:"bytes_per_tx"`
	Committed  int64   `json:"committed"`
	// Latency tails in microseconds (read tails only where the run
	// tracks buffer read misses).
	CommitP50us float64 `json:"commit_p50_us,omitempty"`
	CommitP95us float64 `json:"commit_p95_us,omitempty"`
	CommitP99us float64 `json:"commit_p99_us,omitempty"`
	ReadP50us   float64 `json:"read_p50_us,omitempty"`
	ReadP95us   float64 `json:"read_p95_us,omitempty"`
	ReadP99us   float64 `json:"read_p99_us,omitempty"`
	// Scheduler accounting (sched experiment).
	QueueWaitMeanUs float64 `json:"queue_wait_mean_us,omitempty"`
	EraseSuspends   int64   `json:"erase_suspends,omitempty"`
	// Deadline accounting (QoS and deadline-stamped sched runs): commits
	// that finished past their deadline, and commands the scheduler
	// served ahead of their class because the deadline had passed.
	DeadlineMisses     int64 `json:"deadline_misses,omitempty"`
	DeadlinePromotions int64 `json:"deadline_promotions,omitempty"`
	// Device-health accounting (observed runs, Params.Telemetry set):
	// end-of-run erase-count spread over non-bad blocks and the data
	// region's valid-page copy ratio.
	WearSpread     int     `json:"wear_spread,omitempty"`
	ValidCopyRatio float64 `json:"valid_copy_ratio,omitempty"`
	// Analytical stream + pool accounting (htap experiment).
	ScanQPS      float64 `json:"scan_qps,omitempty"`
	ScanRowsPerS float64 `json:"scan_rows_per_s,omitempty"`
	ScanP50us    float64 `json:"scan_p50_us,omitempty"`
	ScanP99us    float64 `json:"scan_p99_us,omitempty"`
	BufferHit    float64 `json:"buffer_hit_rate,omitempty"`
	GhostHits    int64   `json:"ghost_hits,omitempty"`
	Prefetches   int64   `json:"prefetches,omitempty"`
	PrefetchHits int64   `json:"prefetch_hits,omitempty"`
	// BlameShares decomposes the row's blamed queue wait by culprit
	// class (fractions of 1; blame-enabled runs). For QoS rows the
	// victim is the row's tenant; elsewhere it aggregates every victim.
	BlameShares map[string]float64 `json:"blame_shares,omitempty"`
	// Serving-front accounting (serve experiment): per-tenant
	// throughput and commit tails, plus the admission controller's
	// decision counters for the row's regime.
	TenantTPS     map[string]float64 `json:"tenant_tps,omitempty"`
	TenantP99us   map[string]float64 `json:"tenant_p99_us,omitempty"`
	Admitted      int64              `json:"admitted,omitempty"`
	Deprioritized int64              `json:"deprioritized,omitempty"`
	Shed          int64              `json:"shed,omitempty"`
}

func us(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// JSONReport is the file-level structure.
type JSONReport struct {
	Seed    int64        `json:"seed"`
	Results []JSONResult `json:"results"`
}

// Add appends one row: base carries the row's identity (experiment,
// workload, stack, mode) and whatever experiment-specific extras its
// driver attached (scan_*, tenant maps, blame shares, health, scheduler
// accounting); every measured field common to all experiments is
// derived here from the run's result. A whole-system result fills the
// device fields (wa, erases, bytes_per_tx) from its counter snapshot; a
// per-tenant view (RunResult.tenant) carries none, and its rows report
// them as zero.
func (r *JSONReport) Add(base JSONResult, res *RunResult) {
	base.TPS = res.TPS
	base.WA = res.FTL.WriteAmplification()
	base.Erases = res.Device.Erases
	base.BytesPerTx = res.BytesPerTx()
	base.Committed = res.Committed
	base.CommitP50us = us(res.CommitHist.Percentile(50))
	base.CommitP95us = us(res.CommitHist.Percentile(95))
	base.CommitP99us = us(res.CommitHist.Percentile(99))
	base.ReadP50us = us(res.ReadHist.Percentile(50))
	base.ReadP95us = us(res.ReadHist.Percentile(95))
	base.ReadP99us = us(res.ReadHist.Percentile(99))
	base.DeadlineMisses = res.DeadlineMisses
	r.Results = append(r.Results, base)
}

// setObserved fills the columns a run's observability attachments
// feed: device health, and the blame decomposition over every victim.
func (jr *JSONResult) setObserved(o *Observed) {
	if h := o.Health; h != nil {
		jr.WearSpread = h.Wear.Spread
		for _, reg := range h.Regions {
			if reg.Mapping == "page" {
				jr.ValidCopyRatio = reg.GC.ValidCopyRatio
			}
		}
	}
	if o.Blame != nil {
		jr.BlameShares = o.Blame.ShareMapAll()
	}
}

// Write serializes the report to path (indented, trailing newline).
func (r *JSONReport) Write(path string) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
