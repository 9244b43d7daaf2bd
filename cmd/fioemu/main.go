// Command fioemu stresses the flash emulator with FIO-style synthetic
// jobs (the paper's Demo Scenario 1): configurable geometry and cell
// type, sequential/random read/write patterns, per-op latency
// statistics.
//
// Usage:
//
//	fioemu -dies 8 -capacity-mb 256 -cell mlc -pattern randwrite -ops 20000
//	fioemu -openssd -pattern seqread
package main

import (
	"flag"
	"fmt"
	"os"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/sim"
	"noftl/internal/workload"
)

func main() {
	var (
		dies    = flag.Int("dies", 4, "NAND dies")
		capMB   = flag.Int("capacity-mb", 128, "device capacity")
		cellStr = flag.String("cell", "slc", "cell type: slc|mlc|tlc")
		pattern = flag.String("pattern", "randwrite", "seqread|seqwrite|randread|randwrite|randrw70")
		ops     = flag.Int("ops", 10000, "operations")
		seed    = flag.Int64("seed", 1, "seed")
		openssd = flag.Bool("openssd", false, "use the OpenSSD-like fixture geometry")
		rt      = flag.Float64("realtime", 0, "run against the wall clock at this speed-up factor (0 = virtual time)")
	)
	flag.Parse()

	var cell nand.CellType
	switch *cellStr {
	case "slc":
		cell = nand.SLC
	case "mlc":
		cell = nand.MLC
	case "tlc":
		cell = nand.TLC
	default:
		fmt.Fprintf(os.Stderr, "unknown cell type %q\n", *cellStr)
		os.Exit(2)
	}
	var cfg flash.Config
	if *openssd {
		cfg = flash.OpenSSDConfig()
	} else {
		cfg = flash.EmulatorConfig(*dies, *capMB, cell)
	}
	dev := flash.New(cfg)
	f, err := noftl.NewPageFTL(dev, ftl.PageFTLConfig{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	id := dev.Identify()
	fmt.Printf("device: %s %s, %v/page xfer, tR=%v tPROG=%v tBERS=%v\n",
		id.Geometry, id.Cell, id.TransferPage,
		id.Timing.ReadPage, id.Timing.ProgramPage, id.Timing.EraseBlock)

	var pat workload.Pattern
	switch *pattern {
	case "seqread":
		pat = workload.SeqRead
	case "seqwrite":
		pat = workload.SeqWrite
	case "randread":
		pat = workload.RandRead
	case "randwrite":
		pat = workload.RandWrite
	case "randrw70":
		pat = workload.RandMixed70
	default:
		fmt.Fprintf(os.Stderr, "unknown pattern %q\n", *pattern)
		os.Exit(2)
	}

	var w sim.Waiter
	if *rt > 0 {
		w = sim.NewRealWaiter(*rt)
	} else {
		w = &sim.ClockWaiter{}
	}
	// Reads need programmed pages: pre-fill for read patterns.
	if pat == workload.SeqRead || pat == workload.RandRead || pat == workload.RandMixed70 {
		if _, err := workload.RunSynthetic(w, f, workload.SynthConfig{
			Pattern: workload.SeqWrite, Ops: *ops,
			PageSize: cfg.Geometry.PageSize, Seed: *seed, Span: int64(*ops),
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dev.ResetTime()
		dev.ResetStats()
	}
	res, err := workload.RunSynthetic(w, f, workload.SynthConfig{
		Pattern: pat, Ops: *ops, PageSize: cfg.Geometry.PageSize,
		Seed: *seed, Span: int64(*ops),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("job: %s ops=%d elapsed=%v iops=%.0f\n",
		pat, res.Ops, res.Elapsed, res.IOPS())
	if res.ReadLat.Count() > 0 {
		fmt.Printf("read : %s\n", res.ReadLat.String())
	}
	if res.WriteLat.Count() > 0 {
		fmt.Printf("write: %s\n", res.WriteLat.String())
	}
	st := dev.Stats()
	fmt.Printf("device: reads=%d programs=%d erases=%d copybacks=%d\n",
		st.Reads, st.Programs, st.Erases, st.Copybacks)
	fs := f.Stats()
	fmt.Printf("ftl: %s\n", fs.String())
}
