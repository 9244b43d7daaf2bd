package bench

import (
	"fmt"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/sim"
	"noftl/internal/stats"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// Fig4Config parameterizes the Figure-4 experiment: transactional
// throughput as a function of flash parallelism with db-writers bound
// globally versus die-wise. The paper sweeps 1..32 dies with
// #db-writers = #dies, 16 read processes, a 10 GB drive, TPC-C sf=50 /
// TPC-B sf=500; the defaults shrink drive and populations.
type Fig4Config struct {
	Workload string // "tpcc" or "tpcb"
	Dies     []int  // default {1, 2, 4, 8, 16, 32}
	Workers  int    // default 16 ("16 read processes")
	DriveMB  int    // default 192
	Frames   int    // buffer frames; default 512
	Warm     sim.Time
	Measure  sim.Time
	Seed     int64

	TPCC workload.TPCCConfig
	TPCB workload.TPCBConfig
}

func (c Fig4Config) withDefaults() Fig4Config {
	if c.Workload == "" {
		c.Workload = "tpcc"
	}
	if len(c.Dies) == 0 {
		c.Dies = []int{1, 2, 4, 8, 16, 32}
	}
	if c.Workers <= 0 {
		c.Workers = 16
	}
	if c.DriveMB <= 0 {
		c.DriveMB = 192
	}
	if c.Frames <= 0 {
		c.Frames = 512
	}
	if c.Warm <= 0 {
		c.Warm = 2 * sim.Second
	}
	if c.Measure <= 0 {
		c.Measure = 8 * sim.Second
	}
	if c.TPCC.Warehouses == 0 {
		c.TPCC = workload.TPCCConfig{Warehouses: 2}
	}
	if c.TPCB.Branches == 0 {
		c.TPCB = workload.TPCBConfig{Branches: 24}
	}
	return c
}

// Fig4Point is one (dies, association) measurement.
type Fig4Point struct {
	Dies        int
	Association storage.WriterAssociation
	TPS         float64
	SyncWrites  int64
	AsyncWrites int64
}

// Fig4Result collects both curves of one sub-figure.
type Fig4Result struct {
	Workload string
	Global   stats.Series
	DieWise  stats.Series
	Points   []Fig4Point
}

// Speedup returns the best die-wise/global TPS ratio across die counts
// (the paper reports up to 1.5x for TPC-C and 1.43x for TPC-B).
func (r *Fig4Result) Speedup() float64 { return r.DieWise.MaxRatio(&r.Global) }

// Table renders the figure as rows, with each association's write-back
// split: evictions that wrote their victim synchronously on the
// foreground path versus pages the db-writers wrote back.
func (r *Fig4Result) Table() string {
	t := stats.NewTable("dies", "global TPS", "die-wise TPS", "speedup",
		"global sync", "global async", "die-wise sync", "die-wise async")
	for i := range r.Global.X {
		sp := 0.0
		if r.Global.Y[i] > 0 {
			sp = r.DieWise.Y[i] / r.Global.Y[i]
		}
		g, d := r.Points[2*i], r.Points[2*i+1] // Figure4 appends each die count's pair in this order
		t.Row(int(r.Global.X[i]), r.Global.Y[i], r.DieWise.Y[i], sp,
			g.SyncWrites, g.AsyncWrites, d.SyncWrites, d.AsyncWrites)
	}
	return t.String()
}

// Figure4 reproduces Figure 4a (TPC-C) or 4b (TPC-B): NoFTL with
// die-wise striping, sweeping the number of dies with #db-writers =
// #dies, under global versus die-wise writer association.
func Figure4(cfg Fig4Config) (*Fig4Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig4Result{Workload: cfg.Workload}
	res.Global.Label = "global"
	res.DieWise.Label = "die-wise"
	for _, dies := range cfg.Dies {
		for _, assoc := range []storage.WriterAssociation{storage.AssocGlobal, storage.AssocDieWise} {
			tps, bs, err := figure4Point(cfg, dies, assoc)
			if err != nil {
				return nil, fmt.Errorf("figure4 dies=%d assoc=%v: %w", dies, assoc, err)
			}
			res.Points = append(res.Points, Fig4Point{
				Dies: dies, Association: assoc, TPS: tps,
				SyncWrites: bs.SyncWrites, AsyncWrites: bs.AsyncWrites,
			})
			if assoc == storage.AssocGlobal {
				res.Global.Add(float64(dies), tps)
			} else {
				res.DieWise.Add(float64(dies), tps)
			}
		}
	}
	return res, nil
}

func figure4Point(cfg Fig4Config, dies int, assoc storage.WriterAssociation) (float64, storage.BufferStats, error) {
	devCfg := flash.EmulatorConfig(dies, cfg.DriveMB, nand.SLC)
	sys, err := system.New(system.Config{Stack: system.StackNoFTL, Device: &devCfg, Frames: cfg.Frames})
	if err != nil {
		return 0, storage.BufferStats{}, err
	}
	r, err := RunTPS(sys, oltpWorkload(cfg.Workload, cfg.TPCB, cfg.TPCC), TPSConfig{
		Workers:     cfg.Workers,
		Writers:     dies,
		Association: assoc,
		Warm:        cfg.Warm,
		Measure:     cfg.Measure,
		Seed:        cfg.Seed + int64(dies),
	})
	if err != nil {
		return 0, storage.BufferStats{}, err
	}
	return r.TPS, r.Buffer, nil
}
