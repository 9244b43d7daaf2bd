package bench

import (
	"fmt"
	"strings"

	"noftl/internal/stats"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// Fig4Config parameterizes the Figure-4 experiment: transactional
// throughput as a function of flash parallelism with db-writers bound
// globally versus die-wise. The paper sweeps 1..32 dies with
// #db-writers = #dies, 16 read processes, a 10 GB drive, TPC-C sf=50 /
// TPC-B sf=500; the defaults shrink drive and populations. Zero Params
// fields take the "fig4" row of the defaults table; each point sets
// Dies and Writers to its entry of Sweep.
type Fig4Config struct {
	Params
	Workload string // "tpcc" (default) or "tpcb"
	Sweep    []int  // die counts; default {1, 2, 4, 8, 16, 32}

	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	TPCC workload.TPCCConfig
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	TPCB workload.TPCBConfig
}

// Figure4 reproduces Figure 4a (TPC-C) or 4b (TPC-B): NoFTL with
// die-wise striping, sweeping the number of dies with #db-writers =
// #dies, under global versus die-wise writer association. Each die
// count contributes two rows, "<dies>/global" then "<dies>/die-wise",
// measured with seed Seed+dies.
func Figure4(cfg Fig4Config) (*Rows, error) {
	cfg.Params = cfg.Params.withDefaults("fig4")
	if cfg.Workload == "" {
		cfg.Workload = "tpcc"
	}
	if len(cfg.Sweep) == 0 {
		cfg.Sweep = []int{1, 2, 4, 8, 16, 32}
	}
	if cfg.TPCC.Warehouses == 0 {
		cfg.TPCC = workload.TPCCConfig{Warehouses: 2}
	}
	if cfg.TPCB.Branches == 0 {
		cfg.TPCB = workload.TPCBConfig{Branches: 24}
	}
	res := &Rows{Experiment: "fig4", Workload: cfg.Workload}
	for _, dies := range cfg.Sweep {
		p := cfg.Params
		p.Dies, p.Writers, p.Seed = dies, dies, cfg.Seed+int64(dies)
		var vs []variant
		for _, assoc := range []storage.WriterAssociation{storage.AssocGlobal, storage.AssocDieWise} {
			vs = append(vs, variant{name: fmt.Sprintf("%d/%v", dies, assoc), stack: system.StackNoFTL,
				run: func(sys *system.System) (*RunResult, error) {
					return RunTPS(sys, oltpWorkload(cfg.Workload, cfg.TPCB, cfg.TPCC), TPSConfig{
						Workers:     p.Workers,
						Writers:     p.Writers,
						Association: assoc,
						Warm:        p.Warm,
						Measure:     p.Measure,
						Seed:        p.Seed,
						fault:       p.fault,
					})
				}})
		}
		rows, err := p.runVariants("fig4", cfg.Workload, vs)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows.Rows...)
	}
	return res, nil
}

// fig4Table renders one row per die count, with each association's
// write-back split: evictions that wrote their victim synchronously on
// the foreground path versus pages the db-writers wrote back.
func fig4Table(r *Rows) string {
	t := stats.NewTable("dies", "global TPS", "die-wise TPS", "speedup",
		"global sync", "global async", "die-wise sync", "die-wise async")
	for i := 0; i+1 < len(r.Rows); i += 2 {
		g, d := &r.Rows[i], &r.Rows[i+1] // Figure4 appends each die count's pair, global first
		dies, _, _ := strings.Cut(g.Name, "/")
		t.Row(dies, g.Result.TPS, d.Result.TPS, r.Ratio(d.Name, g.Name, TPS),
			g.Result.Buffer.SyncWrites, g.Result.Buffer.AsyncWrites,
			d.Result.Buffer.SyncWrites, d.Result.Buffer.AsyncWrites)
	}
	return t.String()
}

// DieWiseSpeedup is Figure 4's headline: the best die-wise over global
// TPS ratio across the die counts (paper: up to 1.5x for TPC-C and 1.43x
// for TPC-B). A pair whose global run committed nothing counts 0.
func (r *Rows) DieWiseSpeedup() float64 {
	best := 0.0
	for i := 0; i+1 < len(r.Rows); i += 2 {
		best = max(best, r.Ratio(r.Rows[i+1].Name, r.Rows[i].Name, TPS))
	}
	return best
}
