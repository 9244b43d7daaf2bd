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
	"noftl/internal/workload"
)

// ValidateConfig parameterizes Demo Scenario 1: stressing the emulator
// with FIO-style synthetic jobs to show (1) its timing accuracy against
// the analytic NAND model and (2) reconfigurability across cell types
// and die counts, including the OpenSSD-like fixture.
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
	Pattern  workload.Pattern
	Measured sim.Time // mean per-op latency at queue depth 1
	Model    sim.Time // analytic expectation
	ErrorPct float64
	IOPS     float64
}

// ValidateResult is the emulator validation table.
type ValidateResult struct {
	Rows []ValidateRow
	// ScalingIOPS maps die count -> random-read IOPS at queue depth =
	// dies, demonstrating parallel scaling.
	ScalingIOPS map[int]float64
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
	res := &ValidateResult{ScalingIOPS: map[int]float64{}}

	for _, cell := range []nand.CellType{nand.SLC, nand.MLC, nand.TLC} {
		for _, dies := range []int{1, 4} {
			devCfg := flash.EmulatorConfig(dies, 32, cell)
			dev := flash.New(devCfg)
			f, err := noftl.NewPageFTL(dev, ftl.PageFTLConfig{})
			if err != nil {
				return nil, err
			}
			id := dev.Identify()
			for _, pat := range []workload.Pattern{workload.SeqRead, workload.RandWrite} {
				w := &sim.ClockWaiter{}
				// Pre-fill so reads hit programmed pages.
				pre, err := workload.RunSynthetic(w, f, workload.SynthConfig{
					Pattern: workload.SeqWrite, Ops: cfg.Ops,
					PageSize: devCfg.Geometry.PageSize, Seed: cfg.Seed,
					Span: int64(cfg.Ops),
				})
				if err != nil {
					return nil, err
				}
				_ = pre
				r, err := workload.RunSynthetic(w, f, workload.SynthConfig{
					Pattern: pat, Ops: cfg.Ops,
					PageSize: devCfg.Geometry.PageSize, Seed: cfg.Seed + 1,
					Span: int64(cfg.Ops),
				})
				if err != nil {
					return nil, err
				}
				var measured, model sim.Time
				if pat == workload.SeqRead {
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
					IOPS: r.IOPS(),
				})
			}
		}
	}

	// Die scaling: concurrent random readers (one per die) against a
	// pre-filled device; IOPS should scale near-linearly.
	for _, dies := range []int{1, 2, 4, 8} {
		iops, err := scalingRun(dies, cfg)
		if err != nil {
			return nil, fmt.Errorf("validate scaling %d: %w", dies, err)
		}
		res.ScalingIOPS[dies] = iops
	}
	return res, nil
}

func scalingRun(dies int, cfg ValidateConfig) (float64, error) {
	devCfg := flash.EmulatorConfig(dies, 32, nand.SLC)
	dev := flash.New(devCfg)
	f, err := noftl.NewPageFTL(dev, ftl.PageFTLConfig{})
	if err != nil {
		return 0, err
	}
	w := &sim.ClockWaiter{}
	if _, err := workload.RunSynthetic(w, f, workload.SynthConfig{
		Pattern: workload.SeqWrite, Ops: 4096,
		PageSize: devCfg.Geometry.PageSize, Seed: cfg.Seed,
	}); err != nil {
		return 0, err
	}
	dev.ResetTime()

	k := sim.New()
	done := 0
	var end sim.Time
	perWorker := cfg.Ops
	for i := 0; i < dies; i++ {
		seed := cfg.Seed + int64(i)
		k.Go("reader", func(p *sim.Proc) {
			rng := newRand(seed)
			pw := sim.ProcWaiter{P: p}
			buf := make([]byte, devCfg.Geometry.PageSize)
			for j := 0; j < perWorker; j++ {
				if err := f.Read(pw, rng.Int63n(4096), buf); err != nil {
					return
				}
				done++
			}
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	k.Run()
	if end <= 0 {
		return 0, fmt.Errorf("no simulated time elapsed")
	}
	return float64(done) / end.Seconds(), nil
}
