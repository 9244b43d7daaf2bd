package main

import (
	"fmt"

	"noftl/internal/ioreq"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// htapScan measures analytical scan queries running beside an OLTP
// stream on the same stack: the buffer pool (scan-resistant clock),
// read-ahead and the scheduler's read and prefetch classes serve reads
// while the terminals keep writing. A change that speeds commits by
// starving reads or prefetch shows here. The op is one scan query; the
// OLTP side stream is reported per layer.
var htapScan = kernelSpec{
	name:         "htap_scan",
	simPerSecond: 1.5,
	build: func(seed int64, traced bool) (*kernelEnv, error) {
		opts := append(nativeOpts(traced), system.WithScanResistance(), system.WithPrefetch(16))
		sys, err := system.New(system.Config{Dies: 8, CapacityMB: 64, Frames: 256}, opts...)
		if err != nil {
			return nil, err
		}
		// TPC-B at 30% of the data region: with the TPC-H tables and
		// history growth the run ends near half full, moderate GC
		// pressure, so the workload measures pool and read policy rather
		// than free-block reclamation.
		oltp := workload.NewTPCB(tpcbFor(sys.NoFTL.LogicalPages(), 0.30))
		scans := workload.NewTPCH(workload.TPCHConfig{ScaleFactor: 2})
		if err := oltp.Load(sys.Ctx, sys.Engine); err != nil {
			return nil, fmt.Errorf("load tpcb: %w", err)
		}
		if err := scans.Load(sys.Ctx, sys.Engine); err != nil {
			return nil, fmt.Errorf("load tpch: %w", err)
		}
		if err := finishLoad(sys); err != nil {
			return nil, err
		}
		side := newOpRecorder()
		env := &kernelEnv{sys: sys, fatal: &fatals{k: sys.K}, side: []*opRecorder{side}}
		env.start = func(rec *opRecorder, sink func(*ioreq.Span)) func() {
			terms := workload.StartTerminals(sys.K, sys.Engine, &timed{inner: oltp, rec: side},
				workload.TerminalConfig{N: 8, Seed: seed, Counting: &side.counting,
					OnFatal: env.fatal.on("terminal"), SpanSink: sink})
			readers := workload.StartReaders(sys.K, sys.Engine, &timed{inner: scans, rec: rec},
				workload.ReaderConfig{N: 2, Seed: seed, Counting: &rec.counting,
					OnFatal: env.fatal.on("reader")})
			return func() {
				terms.Stop()
				readers.Stop()
			}
		}
		var rows0 int64
		env.begin = func() { rows0 = scans.RowsScanned() }
		env.finish = func(lc *layerCounters, simSeconds float64) {
			lc.set("workload.scan_rows_per_s", float64(scans.RowsScanned()-rows0)/simSeconds)
			lc.set("workload.oltp_tps", float64(side.ops())/simSeconds)
			lc.set("workload.oltp_commit_p99_us", summarize(side.lat).us(99))
		}
		env.check = func() error { return checkTPCBBalance(sys) }
		return env, nil
	},
}
