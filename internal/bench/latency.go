package bench

import (
	"fmt"

	"noftl/internal/blockdev"
	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/stats"
	"noftl/internal/system"
	"noftl/internal/trace"
)

// LatencyConfig parameterizes the §3 motivation experiment: 4 KB random
// write latency at high device utilisation, on an SLC drive. The paper cites an average
// of 0.450 ms with FTL-specific outliers reaching ~80 ms under heavy
// load; NoFTL's background GC keeps the tail flat.
type LatencyConfig struct {
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	Ops int // default 20000
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	DriveMB int // default 64 (small: GC pressure arrives quickly)
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	Dies int // default 4
	Seed int64
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

// Latency runs the random-write latency study on two SLC drives: the
// FASTer block device (inline GC and merges stall the host) and the
// NoFTL volume (background GC off the write path).
func Latency(cfg LatencyConfig) (*LatencyResult, error) {
	cfg = cfg.withDefaults()
	res := &LatencyResult{}

	// FASTer behind the legacy block interface: merges run inline.
	fdev := flash.New(slcConfig(cfg))
	ff, err := ftl.NewFasterFTL(fdev, ftl.FasterConfig{SecondChance: true})
	if err != nil {
		return nil, err
	}
	bd := blockdev.New(ff, blockdev.Config{})
	fh, err := latencyRun(cfg, bd, bd.Pages(), nil)
	if err != nil {
		return nil, fmt.Errorf("latency faster: %w", err)
	}
	res.Rows = append(res.Rows, LatencyRow{Stack: system.StackFaster, Hist: *fh})

	// NoFTL: the maintenance workers keep regions clean.
	ndev := flash.New(slcConfig(cfg))
	nv, err := noftl.New(ndev, noftl.Config{BackgroundGC: true})
	if err != nil {
		return nil, err
	}
	nh, err := latencyRun(cfg, trace.NoFTLTarget{V: nv}, nv.LogicalPages(), nv)
	if err != nil {
		return nil, fmt.Errorf("latency noftl: %w", err)
	}
	res.Rows = append(res.Rows, LatencyRow{Stack: system.StackNoFTL, Hist: *nh})
	return res, nil
}

// slcConfig is the study's SLC drive, holding no page data.
func slcConfig(cfg LatencyConfig) flash.Config {
	c := flash.EmulatorConfig(cfg.Dies, cfg.DriveMB, nand.SLC)
	c.Nand.StoreData = false
	return c
}

// latencyRun fills the first latencyFill of the target's pages
// sequentially, then replays cfg.Ops random 4 KB overwrites of them under
// the DES kernel and returns their latencies. When vol is non-nil, the
// maintenance workers (sched.StartMaintenance) collect beside the
// writer; once it is done they park and add no events, so the run ends.
// The first error, the writer's or a worker's, wins.
func latencyRun(cfg LatencyConfig, t trace.Target, pages int64, vol *noftl.Volume) (*stats.Histogram, error) {
	k := sim.New()
	span := max(int64(float64(pages)*latencyFill), 1)
	fill := trace.Synthetic(trace.SeqWrite, int(span), span, 4096, cfg.Seed)
	measure := trace.Synthetic(trace.RandWrite, cfg.Ops, span, 4096, cfg.Seed)
	var res *trace.Result
	var fatal error
	fail := func(err error) {
		if fatal == nil {
			fatal = err
		}
	}
	if vol != nil {
		sched.StartMaintenance(k, vol, sched.MaintConfig{OnError: fail})
	}
	k.Go("writer", func(p *sim.Proc) {
		w := sim.ProcWaiter{P: p}
		if _, err := trace.Replay(fill, t, w, trace.ReplayOptions{}); err != nil {
			fail(err)
			return
		}
		r, err := trace.Replay(measure, t, w, trace.ReplayOptions{})
		if err != nil {
			fail(err)
			return
		}
		res = r
	})
	k.Run()
	k.Shutdown()
	if fatal != nil {
		return nil, fatal
	}
	return &res.WriteLat, nil
}
