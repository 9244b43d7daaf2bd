package bench

import (
	"fmt"

	"noftl/internal/blockdev"
	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/stats"
	"noftl/internal/system"
)

// LatencyConfig parameterizes the §3 motivation experiment: 4 KB random
// write latency at high device utilisation. The paper cites an average
// of 0.450 ms with FTL-specific outliers reaching ~80 ms under heavy
// load; NoFTL's background GC keeps the tail flat.
type LatencyConfig struct {
	Ops     int // default 20000
	DriveMB int // default 64 (small: GC pressure arrives quickly)
	Dies    int // default 4
	Seed    int64
}

// latencyFill is the utilised fraction before measurement.
const latencyFill = 0.9

func (c LatencyConfig) withDefaults() LatencyConfig {
	if c.Ops <= 0 {
		c.Ops = 20000
	}
	if c.DriveMB <= 0 {
		c.DriveMB = 64
	}
	if c.Dies <= 0 {
		c.Dies = 4
	}
	return c
}

// LatencyRow is one stack's latency distribution.
type LatencyRow struct {
	Stack system.Stack
	Hist  stats.Histogram
}

// LatencyResult compares write-latency distributions.
type LatencyResult struct {
	Rows []LatencyRow
}

// HistOf returns a stack's histogram.
func (r *LatencyResult) HistOf(s system.Stack) *stats.Histogram {
	for i := range r.Rows {
		if r.Rows[i].Stack == s {
			return &r.Rows[i].Hist
		}
	}
	return nil
}

// Table renders mean and tail latencies.
func (r *LatencyResult) Table() string {
	t := stats.NewTable("stack", "mean", "p99", "p99.9", "max")
	for _, row := range r.Rows {
		t.Row(string(row.Stack), row.Hist.Mean().String(),
			row.Hist.Percentile(99).String(), row.Hist.Percentile(99.9).String(),
			row.Hist.Max().String())
	}
	return t.String()
}

// Latency runs the random-write latency study on the FASTer block
// device (inline GC and merges stall the host) and the NoFTL volume
// (background GC off the write path).
func Latency(cfg LatencyConfig) (*LatencyResult, error) {
	cfg = cfg.withDefaults()
	res := &LatencyResult{}

	// FASTer behind the legacy block interface: merges run inline.
	fdev := flash.New(mlcConfig(cfg))
	ff, err := ftl.NewFasterFTL(fdev, ftl.FasterConfig{SecondChance: true})
	if err != nil {
		return nil, err
	}
	bd := blockdev.New(ff, blockdev.Config{})
	fh, err := latencyRun(cfg, func(w sim.Waiter, lpn int64, buf []byte) error {
		return bd.Write(w, lpn, buf)
	}, ff.LogicalPages(), nil)
	if err != nil {
		return nil, fmt.Errorf("latency faster: %w", err)
	}
	res.Rows = append(res.Rows, LatencyRow{Stack: system.StackFaster, Hist: *fh})

	// NoFTL: the maintenance workers keep regions clean.
	ndev := flash.New(mlcConfig(cfg))
	nv, err := noftl.New(ndev, noftl.Config{BackgroundGC: true})
	if err != nil {
		return nil, err
	}
	nh, err := latencyRun(cfg, func(w sim.Waiter, lpn int64, buf []byte) error {
		return nv.Write(ioreq.Plain(w), lpn, buf)
	}, nv.LogicalPages(), nv)
	if err != nil {
		return nil, fmt.Errorf("latency noftl: %w", err)
	}
	res.Rows = append(res.Rows, LatencyRow{Stack: system.StackNoFTL, Hist: *nh})
	return res, nil
}

func mlcConfig(cfg LatencyConfig) flash.Config {
	c := flash.EmulatorConfig(cfg.Dies, cfg.DriveMB, nand.SLC)
	c.Nand.StoreData = false
	return c
}

// latencyRun fills the device, then measures per-write latency under
// the DES kernel. When vol is non-nil, the maintenance workers
// (sched.StartMaintenance) collect beside the writer, which stops them
// after its last op so that the run ends.
func latencyRun(cfg LatencyConfig, write func(sim.Waiter, int64, []byte) error,
	pages int64, vol *noftl.Volume) (*stats.Histogram, error) {
	k := sim.New()
	rng := newRand(cfg.Seed)
	buf := make([]byte, 4096)
	span := int64(float64(pages) * latencyFill)
	if span < 1 {
		span = 1
	}
	var h stats.Histogram
	var fatal error
	stop := func() {}
	if vol != nil {
		mt := sched.StartMaintenance(k, vol, sched.MaintConfig{OnError: func(err error) { fatal = err }})
		stop = mt.Stop
	}
	k.Go("writer", func(p *sim.Proc) {
		defer stop()
		w := sim.ProcWaiter{P: p}
		// Fill phase: sequential load to the target utilisation.
		for lpn := int64(0); lpn < span; lpn++ {
			if err := write(w, lpn, buf); err != nil {
				fatal = err
				return
			}
		}
		// Measure phase: random 4 KB overwrites.
		for i := 0; i < cfg.Ops; i++ {
			lpn := rng.Int63n(span)
			t0 := p.Now()
			if err := write(w, lpn, buf); err != nil {
				fatal = err
				return
			}
			h.Add(p.Now() - t0)
		}
	})
	k.Run()
	k.Shutdown()
	if fatal != nil {
		return nil, fatal
	}
	return &h, nil
}
