// Package bench implements the paper's experiments: every table and
// figure of the evaluation has a driver here that regenerates it
// (Figure 3 GC overhead, Figures 4a/4b writer association, the headline
// stack comparison, the latency study, emulator validation) plus the
// ablations DESIGN.md calls out.
//
// Every kernel-driven experiment is built, run and reported one way:
// Params.build assembles its system through system.New, execute (run.go)
// owns the load → reset → start → warm/settle/measure → drain lifecycle
// and returns one RunResult, and JSONReport.Add turns a RunResult into a
// machine-readable row. A multi-run experiment is a variant list that
// Params.runVariants (rows.go) measures into one Rows. The drivers only
// describe what differs.
package bench

import (
	"slices"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/system"
	"noftl/internal/telemetry"
	"noftl/internal/telemetry/blame"
	"noftl/internal/telemetry/health"
	"noftl/internal/workload"
)

// Params is the parameter block every kernel-driven experiment config
// embeds. A zero field takes the experiment's own default (the defaults
// table below).
type Params struct {
	Dies    int
	DriveMB int
	// Workers is the number of closed-loop client processes: OLTP
	// terminals, or sessions for the serving ablation.
	Workers int
	Writers int // background db-writers
	Frames  int // buffer-pool frames
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	Warm    sim.Time
	Measure sim.Time
	Seed    int64

	// Telemetry asks for observability: it attaches the cross-layer
	// telemetry pipeline to each run's system (request spans on every
	// counted transaction, the metrics sampler and the flight recorder:
	// Observed.Tel), and each row carries the end-of-run device-health
	// snapshot (Observed.Health).
	Telemetry *telemetry.Config
	// Blame attaches the latency root-cause engine (implies telemetry
	// with span retention and a system-owned command log);
	// Observed.Blame carries the analyzed report.
	Blame *blame.Config

	// fault is the tests' injection seam: the run loop asks it once per
	// background process kind ("maintenance", "prefetcher",
	// "checkpointer") and treats a non-nil answer as that process's
	// fatal error.
	fault func(proc string) error
}

// defaults holds each experiment's own geometry, load and phase
// lengths. The 64 MB drives put the derived TPC-B populations in the
// GC-pressure regime where scheduling and placement policy matter; the
// htap pool must be smaller than the scanned table or nothing collides;
// fig4, headline and delta use the 192 MB drive every published run
// had (fig4's dies and writers come from its sweep).
var defaults = map[string]Params{
	"fig4":     {DriveMB: 192, Workers: 16, Frames: 512, Warm: 2 * sim.Second, Measure: 8 * sim.Second},
	"headline": {Dies: 8, DriveMB: 192, Workers: 16, Writers: 8, Frames: 384, Warm: 2 * sim.Second, Measure: 8 * sim.Second},
	"delta":    {Dies: 8, DriveMB: 192, Workers: 16, Writers: 8, Frames: 384, Warm: 2 * sim.Second, Measure: 8 * sim.Second},
	"regions":  {Dies: 8, DriveMB: 64, Workers: 16, Writers: 8, Frames: 384, Warm: 2 * sim.Second, Measure: 8 * sim.Second},
	"sched":    {Dies: 8, DriveMB: 64, Workers: 16, Writers: 8, Frames: 384, Warm: 2 * sim.Second, Measure: 8 * sim.Second},
	"htap":     {Dies: 8, DriveMB: 64, Workers: 12, Writers: 8, Frames: 256, Warm: 2 * sim.Second, Measure: 8 * sim.Second},
	"qos":      {Dies: 8, DriveMB: 64, Workers: 16, Writers: 8, Frames: 384, Warm: 2 * sim.Second, Measure: 8 * sim.Second},
	"serve":    {Dies: 8, DriveMB: 64, Workers: 800, Writers: 8, Frames: 384, Warm: 1 * sim.Second, Measure: 6 * sim.Second},
}

// withDefaults fills the block's zero fields from experiment exp's row
// of the defaults table.
func (p Params) withDefaults(exp string) Params {
	d := defaults[exp]
	p.Dies = orDefault(p.Dies, d.Dies)
	p.DriveMB = orDefault(p.DriveMB, d.DriveMB)
	p.Workers = orDefault(p.Workers, d.Workers)
	p.Writers = orDefault(p.Writers, d.Writers)
	p.Frames = orDefault(p.Frames, d.Frames)
	p.Warm = orDefault(p.Warm, d.Warm)
	p.Measure = orDefault(p.Measure, d.Measure)
	return p
}

func orDefault[T int | int64 | sim.Time | float64](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// build assembles one run's system through the one builder entry:
// geometry and pool size from the block, the driver's stack options,
// then the observability attachments the block asks for.
func (p Params) build(stack system.Stack, opts ...system.Option) (*system.System, error) {
	opts = slices.Clip(opts) // variants share option lists: never append into one
	if p.Telemetry != nil {
		opts = append(opts, system.WithTelemetry(*p.Telemetry))
	}
	if p.Blame != nil {
		opts = append(opts, system.WithBlame(*p.Blame))
	}
	dev := flash.EmulatorConfig(p.Dies, p.DriveMB, nand.SLC)
	return system.New(system.Config{Stack: stack, Device: &dev, Frames: p.Frames}, opts...)
}

// Observed is what a run's observability attachments produced; each
// field is nil unless the experiment's Params asked for it.
type Observed struct {
	Tel    *telemetry.Telemetry
	CmdLog []sched.Event
	Blame  *blame.Report
	// Health is the end-of-run device-health snapshot.
	Health *health.Snapshot
}

// observe collects a finished run's observability outputs.
func (p Params) observe(sys *system.System) Observed {
	o := Observed{Tel: sys.Tel, CmdLog: sys.CmdLog, Blame: sys.Blame()}
	if p.Telemetry != nil {
		o.Health = sys.Health()
	}
	return o
}

// occupancy is the data volume's live fraction (0 on block-device
// stacks).
func occupancy(sys *system.System) float64 {
	if sys.NoFTL == nil || sys.NoFTL.LogicalPages() == 0 {
		return 0
	}
	return float64(sys.NoFTL.LivePages()) / float64(sys.NoFTL.LogicalPages())
}

// deriveTPCB sizes a TPC-B population to fill the given fraction of
// dataPages at load: about 34 rows (heap row + pk entry) fit a 4 KiB
// page (measured), and the append-only history table keeps growing
// through the run, so experiments start below their target occupancy.
func deriveTPCB(dataPages int64, fill float64) workload.TPCBConfig {
	const rowsPerPage = 34
	const accounts = 6000
	branches := int(int64(float64(dataPages)*fill*rowsPerPage) / accounts)
	if branches < 2 {
		branches = 2
	}
	return workload.TPCBConfig{Branches: branches, AccountsPerBranch: accounts}
}

// oltpWorkload picks the named transactional workload ("tpcb", else
// TPC-C).
func oltpWorkload(name string, tpcb workload.TPCBConfig, tpcc workload.TPCCConfig) workload.Workload {
	if name == "tpcb" {
		return workload.NewTPCB(tpcb)
	}
	return workload.NewTPCC(tpcc)
}
