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
//
// A sweep's rows are named after their stacks.

// SweepConfig parameterizes a stack sweep. Zero fields take the
// experiment's defaults (Params: the defaults table; the rest: sweeps).
// The stacks under comparison are the experiment's own (sweeps).
type SweepConfig struct {
	Params
	Workload string // "tpcc" or "tpcb"
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	TPCC workload.TPCCConfig
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	TPCB workload.TPCBConfig
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

// sweep measures TPS for every stack of the experiment on identical
// hardware and workload.
func sweep(exp string, cfg SweepConfig) (*Rows, error) {
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
	run := func(sys *system.System) (*RunResult, error) {
		assoc := storage.AssocDieWise
		if sys.NoFTL == nil {
			assoc = storage.AssocGlobal // the block device hides regions
		}
		return RunTPS(sys, oltpWorkload(cfg.Workload, cfg.TPCB, cfg.TPCC), TPSConfig{
			Workers:     cfg.Workers,
			Writers:     cfg.Writers,
			Association: assoc,
			Warm:        cfg.Warm,
			Measure:     cfg.Measure,
			Seed:        cfg.Seed,
			fault:       cfg.fault,
		})
	}
	vs := make([]variant, len(d.stacks))
	for i, stack := range d.stacks {
		vs[i] = variant{name: string(stack), stack: stack, run: run}
	}
	return cfg.runVariants(exp, cfg.Workload, vs)
}

// Headline measures TPS for every stack on identical hardware and
// workload. Its ratios: noftl over faster TPS (paper: 2.4x TPC-C, 2.25x
// TPC-B) and pagemap over dftl TPS, the mapping-cache penalty (paper: up
// to 3.7x).
func Headline(cfg HeadlineConfig) (*Rows, error) { return sweep("headline", cfg) }

func headlineTable(r *Rows) string {
	t := stats.NewTable("stack", "TPS", "vs faster", "WA", "copybacks", "erases", "mapIO")
	for _, row := range r.Rows {
		res := &row.Result
		t.Row(row.Name, res.TPS, r.Ratio(row.Name, string(system.StackFaster), TPS),
			res.FTL.WriteAmplification(),
			res.Device.Copybacks, res.Device.Erases,
			res.FTL.MapReads+res.FTL.MapWrites)
	}
	return t.String()
}

// DeltaAblation runs the delta-write sweep. Its ratio: noftl-delta over
// noftl bytes per transaction (< 1 means the delta path writes less
// flash per transaction).
func DeltaAblation(cfg DeltaConfig) (*Rows, error) { return sweep("delta", cfg) }

func deltaTable(r *Rows) string {
	t := stats.NewTable("stack", "TPS", "KB/tx", "WA", "deltaW", "folds",
		"gcCopies", "erases", "progMB")
	for _, row := range r.Rows {
		d, f := row.Result.Device, row.Result.FTL
		t.Row(row.Name, row.Result.TPS,
			row.Result.BytesPerTx()/1024,
			f.WriteAmplification(),
			f.DeltaWrites, f.Folds,
			f.GCPages(), d.Erases,
			float64(d.ProgramBytes)/(1<<20))
	}
	return t.String()
}

// RegionsAblation runs the regions sweep. Its ratios: noftl-regions over
// noftl-single erases per transaction (< 1 means region placement
// erases less for the same work) and TPS.
func RegionsAblation(cfg RegionsConfig) (*Rows, error) { return sweep("regions", cfg) }

func regionsTable(r *Rows) string {
	t := stats.NewTable("stack", "TPS", "KB/tx", "WA", "gcCopies", "erases", "erases/ktx", "progMB")
	for _, row := range r.Rows {
		d, f := row.Result.Device, row.Result.FTL
		t.Row(row.Name, row.Result.TPS,
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
func (r *Rows) RegionTable() string {
	row := r.Row(string(system.StackNoFTLRegions))
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
