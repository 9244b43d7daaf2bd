package bench

import (
	"fmt"

	"noftl/internal/stats"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// The stack sweeps: the same engine and workload measured over a list
// of storage stacks on identical hardware. Three experiments are
// sweeps and differ only in their stack list, defaults and tables:
//
//   - Headline — the end-to-end comparison behind the paper's headline
//     claims: NoFTL ≥2.4x over the conventional hybrid FTL stack under
//     TPC-C (2.25x TPC-B), and DFTL up to 3.7x slower than pure page
//     mapping.
//   - DeltaAblation (A5) — the in-place-append design: full-page NoFTL
//     vs delta-append NoFTL vs the conventional FTL block device; what
//     the delta path buys (flash bytes programmed per transaction, write
//     amplification, GC copy work) and costs (fold traffic, extra reads
//     on chain folds).
//   - RegionsAblation (A6) — the configurable-regions design, WAL and
//     data both on flash: a single-policy NoFTL volume where the log is
//     just a window of the page-mapped space vs the region manager
//     placing the WAL on a native append-only log region (block-granular
//     mapping, truncation-on-checkpoint). What stream segregation buys:
//     erases, write amplification, GC copy work, bytes per transaction,
//     throughput — plus the per-region breakdown only the region-managed
//     stack can provide.

// SweepConfig parameterizes a stack sweep. Zero fields take the
// experiment's defaults (Params: the defaults table; the rest: sweeps).
// The stacks under comparison are the experiment's own (sweeps).
type SweepConfig struct {
	Params
	Workload string // "tpcc" or "tpcb"
	TPCC     workload.TPCCConfig
	TPCB     workload.TPCBConfig
}

// The sweeps' configs share one shape.
type (
	// HeadlineConfig parameterizes Headline. Defaults: TPC-C sf 2 (TPC-B
	// 24 branches) over noftl, pagemap, faster and dftl.
	HeadlineConfig = SweepConfig
	// DeltaConfig parameterizes DeltaAblation. Defaults: TPC-B over
	// noftl, noftl-delta and faster.
	DeltaConfig = SweepConfig
	// RegionsConfig parameterizes RegionsAblation. Defaults: TPC-B over
	// noftl-single and noftl-regions, on a drive sized for real GC
	// pressure (the regime where placement policy matters): the TPC-B
	// data fills roughly 60% of the data region, and the history table
	// keeps growing.
	RegionsConfig = SweepConfig
)

// sweeps holds each sweep's stack list and non-Params defaults.
var sweeps = map[string]struct {
	workload string
	stacks   []system.Stack
	tpcc     workload.TPCCConfig
	tpcb     workload.TPCBConfig
}{
	"headline": {"tpcc",
		[]system.Stack{system.StackNoFTL, system.StackPagemap, system.StackFaster, system.StackDFTL},
		workload.TPCCConfig{Warehouses: 2}, workload.TPCBConfig{Branches: 24}},
	"delta": {"tpcb",
		[]system.Stack{system.StackNoFTL, system.StackNoFTLDelta, system.StackFaster},
		workload.TPCCConfig{Warehouses: 2}, workload.TPCBConfig{Branches: 24}},
	"regions": {"tpcb",
		[]system.Stack{system.StackNoFTLSingle, system.StackNoFTLRegions},
		workload.TPCCConfig{Warehouses: 4}, workload.TPCBConfig{Branches: 32, AccountsPerBranch: 6000}},
}

// StackRow is one stack's measurement in a sweep (Result.Regions is
// the per-region breakdown on the region-managed stack).
type StackRow struct {
	Stack  system.Stack
	Result RunResult
}

// SweepResult is a sweep's outcome: one row per stack, in config order.
type SweepResult struct {
	Experiment string
	Workload   string
	Rows       []StackRow
}

// Row returns a stack's measurement (nil if it did not run).
func (r *SweepResult) Row(s system.Stack) *StackRow {
	for i := range r.Rows {
		if r.Rows[i].Stack == s {
			return &r.Rows[i]
		}
	}
	return nil
}

// ratio is f(num)/f(den) over two of the sweep's stacks (0 when either
// is absent or the denominator is zero).
func (r *SweepResult) ratio(num, den system.Stack, f func(*RunResult) float64) float64 {
	n, d := r.Row(num), r.Row(den)
	if n == nil || d == nil || f(&d.Result) == 0 {
		return 0
	}
	return f(&n.Result) / f(&d.Result)
}

func tpsOf(r *RunResult) float64 { return r.TPS }

// AddTo appends the sweep's rows to a machine-readable report.
func (r *SweepResult) AddTo(rep *JSONReport) {
	for i := range r.Rows {
		rep.Add(JSONResult{Experiment: r.Experiment, Workload: r.Workload,
			Stack: string(r.Rows[i].Stack)}, &r.Rows[i].Result)
	}
}

// sweep measures TPS for every stack of the experiment on identical
// hardware and workload.
func sweep(exp string, cfg SweepConfig) (*SweepResult, error) {
	d := sweeps[exp]
	cfg.Params = cfg.Params.withDefaults(exp)
	if cfg.Workload == "" {
		cfg.Workload = d.workload
	}
	if cfg.TPCC.Warehouses == 0 {
		cfg.TPCC = d.tpcc
	}
	if cfg.TPCB.Branches == 0 {
		cfg.TPCB = d.tpcb
	}
	res := &SweepResult{Experiment: exp, Workload: cfg.Workload}
	for _, stack := range d.stacks {
		sys, _, err := cfg.build(stack)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", exp, stack, err)
		}
		assoc := storage.AssocDieWise
		if sys.NoFTL == nil {
			assoc = storage.AssocGlobal // the block device hides regions
		}
		r, err := RunTPS(sys, oltpWorkload(cfg.Workload, cfg.TPCB, cfg.TPCC), TPSConfig{
			Workers:     cfg.Workers,
			Writers:     cfg.Writers,
			Association: assoc,
			Warm:        cfg.Warm,
			Measure:     cfg.Measure,
			Seed:        cfg.Seed,
			fault:       cfg.fault,
		})
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", exp, stack, err)
		}
		res.Rows = append(res.Rows, StackRow{Stack: stack, Result: *r})
	}
	return res, nil
}

// HeadlineResult compares the stacks end to end.
type HeadlineResult struct{ SweepResult }

// Headline measures TPS for every stack on identical hardware and
// workload.
func Headline(cfg HeadlineConfig) (*HeadlineResult, error) {
	r, err := sweep("headline", cfg)
	if err != nil {
		return nil, err
	}
	return &HeadlineResult{*r}, nil
}

// NoFTLSpeedupOverFaster is the headline ratio (paper: 2.4x TPC-C,
// 2.25x TPC-B).
func (r *HeadlineResult) NoFTLSpeedupOverFaster() float64 {
	return r.ratio(system.StackNoFTL, system.StackFaster, tpsOf)
}

// DFTLSlowdownVsPagemap is the mapping-cache penalty (paper: up to
// 3.7x).
func (r *HeadlineResult) DFTLSlowdownVsPagemap() float64 {
	return r.ratio(system.StackPagemap, system.StackDFTL, tpsOf)
}

// Table renders the comparison.
func (r *HeadlineResult) Table() string {
	t := stats.NewTable("stack", "TPS", "vs faster", "WA", "copybacks", "erases", "mapIO")
	for _, row := range r.Rows {
		res := &row.Result
		t.Row(string(row.Stack), res.TPS, r.ratio(row.Stack, system.StackFaster, tpsOf),
			res.FTL.WriteAmplification(),
			res.Device.Copybacks, res.Device.Erases,
			res.FTL.MapReads+res.FTL.MapWrites)
	}
	return t.String()
}

// DeltaResult is the delta-write ablation outcome.
type DeltaResult struct{ SweepResult }

// DeltaAblation runs the delta-write sweep.
func DeltaAblation(cfg DeltaConfig) (*DeltaResult, error) {
	r, err := sweep("delta", cfg)
	if err != nil {
		return nil, err
	}
	return &DeltaResult{*r}, nil
}

// BytesPerTxRatio returns delta-NoFTL bytes/tx over full-page-NoFTL
// bytes/tx (< 1 means the delta path writes less flash per transaction).
func (r *DeltaResult) BytesPerTxRatio() float64 {
	return r.ratio(system.StackNoFTLDelta, system.StackNoFTL, (*RunResult).BytesPerTx)
}

// Table renders the ablation.
func (r *DeltaResult) Table() string {
	t := stats.NewTable("stack", "TPS", "KB/tx", "WA", "deltaW", "folds",
		"gcCopies", "erases", "progMB")
	for _, row := range r.Rows {
		d, f := row.Result.Device, row.Result.FTL
		t.Row(string(row.Stack), row.Result.TPS,
			row.Result.BytesPerTx()/1024,
			f.WriteAmplification(),
			f.DeltaWrites, f.Folds,
			f.GCPages(), d.Erases,
			float64(d.ProgramBytes)/(1<<20))
	}
	return t.String()
}

// RegionsResult is the regions ablation outcome.
type RegionsResult struct{ SweepResult }

// RegionsAblation runs the regions sweep.
func RegionsAblation(cfg RegionsConfig) (*RegionsResult, error) {
	r, err := sweep("regions", cfg)
	if err != nil {
		return nil, err
	}
	return &RegionsResult{*r}, nil
}

// EraseRatio is region-managed erases per transaction over
// single-policy erases per transaction (< 1 means region placement
// erases less for the same work).
func (r *RegionsResult) EraseRatio() float64 {
	return r.ratio(system.StackNoFTLRegions, system.StackNoFTLSingle, (*RunResult).ErasesPerKTx)
}

// WADelta is single-policy WA minus region-managed WA (> 0 means the
// region-managed stack amplifies less).
func (r *RegionsResult) WADelta() float64 {
	single, regions := r.Row(system.StackNoFTLSingle), r.Row(system.StackNoFTLRegions)
	if single == nil || regions == nil {
		return 0
	}
	return single.Result.FTL.WriteAmplification() - regions.Result.FTL.WriteAmplification()
}

// TPSRatio is region-managed TPS over single-policy TPS.
func (r *RegionsResult) TPSRatio() float64 {
	return r.ratio(system.StackNoFTLRegions, system.StackNoFTLSingle, tpsOf)
}

// Table renders the stack comparison.
func (r *RegionsResult) Table() string {
	t := stats.NewTable("stack", "TPS", "KB/tx", "WA", "gcCopies", "erases", "erases/ktx", "progMB")
	for _, row := range r.Rows {
		d, f := row.Result.Device, row.Result.FTL
		t.Row(string(row.Stack), row.Result.TPS,
			row.Result.BytesPerTx()/1024,
			f.WriteAmplification(),
			f.GCPages(), d.Erases,
			row.Result.ErasesPerKTx(),
			float64(d.ProgramBytes)/(1<<20))
	}
	return t.String()
}

// RegionTable renders the per-region breakdown of the region-managed
// stack (empty when that stack did not run).
func (r *RegionsResult) RegionTable() string {
	row := r.Row(system.StackNoFTLRegions)
	if row == nil || len(row.Result.Regions) == 0 {
		return ""
	}
	t := stats.NewTable("region", "map", "dies", "hostW", "gcCopies", "erases", "WA", "occupancy")
	for _, rs := range row.Result.Regions {
		t.Row(rs.Name, rs.Mapping.String(), rs.Dies, rs.FTL.HostWrites,
			rs.FTL.GCPages(), rs.FTL.Erases,
			rs.FTL.WriteAmplification(), fmt.Sprintf("%.1f%%", 100*rs.Occupancy()))
	}
	return t.String()
}
