package bench

import (
	"fmt"
	"math"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/sim"
	"noftl/internal/stats"
	"noftl/internal/trace"
)

// ValidateConfig parameterizes Demo Scenario 1: stressing the emulator
// with FIO-style synthetic jobs to show (1) its timing accuracy against
// the analytic NAND model and (2) reconfigurability across the SLC, MLC
// and TLC cell types and one to eight dies.
type ValidateConfig struct {
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	Ops  int // per job; default 2000
	Seed int64
}

func (c ValidateConfig) withDefaults() ValidateConfig {
	if c.Ops <= 0 {
		c.Ops = 2000
	}
	return c
}

// ValidateRow is one synthetic job's outcome versus the model.
type ValidateRow struct {
	Cell     nand.CellType
	Dies     int
	Pattern  trace.Pattern
	Measured sim.Time // mean per-op latency at queue depth 1
	Model    sim.Time // analytic expectation
	ErrorPct float64
}

// ValidateResult is the emulator validation table.
type ValidateResult struct {
	Rows []ValidateRow
	// Scaling is random-read IOPS at queue depth = dies, one entry per
	// die count in measurement order, demonstrating parallel scaling.
	Scaling []DieIOPS
}

// DieIOPS is the random-read IOPS measured at one die count.
type DieIOPS struct {
	Dies int
	IOPS float64
}

// MaxErrorPct is the largest deviation between measured and analytic
// latency (queue depth 1 must match the model almost exactly).
func (r *ValidateResult) MaxErrorPct() float64 {
	m := 0.0
	for _, row := range r.Rows {
		if e := math.Abs(row.ErrorPct); e > m {
			m = e
		}
	}
	return m
}

// Table renders the validation results.
func (r *ValidateResult) Table() string {
	t := stats.NewTable("cell", "dies", "pattern", "measured", "model", "err%")
	for _, row := range r.Rows {
		t.Row(row.Cell.String(), row.Dies, row.Pattern.String(),
			row.Measured.String(), row.Model.String(), row.ErrorPct)
	}
	return t.String()
}

// Validate runs the emulator validation: queue-depth-1 latencies for
// every cell type and pattern against the analytic model, plus die
// scaling at higher queue depth.
func Validate(cfg ValidateConfig) (*ValidateResult, error) {
	cfg = cfg.withDefaults()
	res := &ValidateResult{}

	for _, cell := range []nand.CellType{nand.SLC, nand.MLC, nand.TLC} {
		for _, dies := range []int{1, 4} {
			devCfg := flash.EmulatorConfig(dies, 32, cell)
			dev := flash.New(devCfg)
			f, err := noftl.NewPageFTL(dev, ftl.PageFTLConfig{})
			if err != nil {
				return nil, err
			}
			id := dev.Identify()
			pageSize, span := devCfg.Geometry.PageSize, int64(cfg.Ops)
			w := &sim.ClockWaiter{}
			for _, pat := range []trace.Pattern{trace.SeqRead, trace.RandWrite} {
				// Pre-fill so reads hit programmed pages.
				fill := trace.Synthetic(trace.SeqWrite, cfg.Ops, span, pageSize, cfg.Seed)
				if _, err := trace.Replay(fill, f, w, trace.ReplayOptions{}); err != nil {
					return nil, err
				}
				r, err := trace.Replay(trace.Synthetic(pat, cfg.Ops, span, pageSize, cfg.Seed+1), f, w, trace.ReplayOptions{})
				if err != nil {
					return nil, err
				}
				var measured, model sim.Time
				if pat == trace.SeqRead {
					measured = r.ReadLat.Mean()
					model = 2*sim.Microsecond + id.Timing.ReadPage + id.TransferPage
				} else {
					measured = r.WriteLat.Mean()
					model = 2*sim.Microsecond + id.Timing.ProgramPage + id.TransferPage
				}
				errPct := 0.0
				if model > 0 {
					errPct = 100 * float64(measured-model) / float64(model)
				}
				res.Rows = append(res.Rows, ValidateRow{
					Cell: cell, Dies: dies, Pattern: pat,
					Measured: measured, Model: model, ErrorPct: errPct,
				})
			}
		}
	}

	// Die scaling: concurrent random readers (one per die) against a
	// pre-filled device. Readers drawing uniform addresses collide on
	// dies: N of them keep about N(1-(1-1/N)^N) dies busy, so IOPS scale
	// 1/1.50/2.73/5.25x at 1/2/4/8 dies, not linearly (measured
	// 1/1.51/2.62/4.88x).
	for _, dies := range []int{1, 2, 4, 8} {
		iops, err := scalingRun(dies, cfg)
		if err != nil {
			return nil, fmt.Errorf("validate scaling %d: %w", dies, err)
		}
		res.Scaling = append(res.Scaling, DieIOPS{dies, iops})
	}
	return res, nil
}

// scalingRun fills the first scalingSpan pages, then starts one random
// reader per die and returns their combined IOPS.
func scalingRun(dies int, cfg ValidateConfig) (float64, error) {
	const scalingSpan = 4096
	devCfg := flash.EmulatorConfig(dies, 32, nand.SLC)
	pageSize := devCfg.Geometry.PageSize
	dev := flash.New(devCfg)
	f, err := noftl.NewPageFTL(dev, ftl.PageFTLConfig{})
	if err != nil {
		return 0, err
	}
	fill := trace.Synthetic(trace.SeqWrite, scalingSpan, scalingSpan, pageSize, cfg.Seed)
	if _, err := trace.Replay(fill, f, &sim.ClockWaiter{}, trace.ReplayOptions{}); err != nil {
		return 0, err
	}
	dev.ResetTime()

	k := sim.New()
	var end sim.Time
	var readErr error
	for i := 0; i < dies; i++ {
		reads := trace.Synthetic(trace.RandRead, cfg.Ops, scalingSpan, pageSize, cfg.Seed+int64(i))
		k.Go("reader", func(p *sim.Proc) {
			if _, err := trace.Replay(reads, f, sim.ProcWaiter{P: p}, trace.ReplayOptions{}); err != nil {
				if readErr == nil {
					readErr = err
				}
				return
			}
			end = max(end, p.Now())
		})
	}
	k.Run()
	if readErr != nil {
		return 0, readErr
	}
	if end <= 0 {
		return 0, fmt.Errorf("no simulated time elapsed")
	}
	return float64(dies*cfg.Ops) / end.Seconds(), nil
}
