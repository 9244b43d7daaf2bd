package main

import (
	"encoding/binary"
	"fmt"

	"noftl/internal/ioreq"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// tpcbFor sizes a TPC-B population to the given share of the data
// region: about 34 rows (heap row plus primary-key entry) fit a 4 KiB
// page, and the append-only history table grows through the run, so the
// load starts below the occupancy the run ends at.
func tpcbFor(dataPages int64, fill float64) workload.TPCBConfig {
	const rowsPerPage = 34
	const accounts = 6000
	branches := int(float64(dataPages) * fill * rowsPerPage / accounts)
	return workload.TPCBConfig{Branches: max(branches, 2), AccountsPerBranch: accounts}
}

// checkTPCBBalance verifies the TPC-B invariant: every transaction adds
// one delta to a branch balance and logs the same delta in history, so
// the two sums must agree once no transaction is mid-flight.
func checkTPCBBalance(sys *system.System) error {
	field := func(rec []byte, i int) int64 {
		return int64(binary.LittleEndian.Uint64(rec[i*8:]))
	}
	sum := func(table string, col int) (int64, error) {
		id, err := sys.Engine.OpenTable(table)
		if err != nil {
			return 0, err
		}
		var s int64
		err = sys.Engine.Scan(sys.Ctx, id, func(_ storage.RID, rec []byte) bool {
			s += field(rec, col)
			return true
		})
		return s, err
	}
	branches, err := sum("tpcb_branch", 1)
	if err != nil {
		return err
	}
	history, err := sum("tpcb_history", 3)
	if err != nil {
		return err
	}
	if branches != history {
		return fmt.Errorf("tpcb balance: branch sum %d != history sum %d", branches, history)
	}
	return nil
}

// tpcbNative is the write-heavy path through every native layer at
// once: 16 closed-loop terminals running TPC-B against a population
// about 18 times the buffer pool (the cache-exceeds case), so kernel,
// scheduler, flash, volume GC, log region, buffer misses and WAL all
// carry load.
var tpcbNative = kernelSpec{
	name:         "tpcb_native",
	simPerSecond: 1.2,
	build: func(seed int64, traced bool) (*kernelEnv, error) {
		sys, err := system.New(system.Config{Dies: 8, CapacityMB: 64, Frames: 384}, nativeOpts(traced)...)
		if err != nil {
			return nil, err
		}
		wl := workload.NewTPCB(tpcbFor(sys.NoFTL.LogicalPages(), 0.45))
		if err := wl.Load(sys.Ctx, sys.Engine); err != nil {
			return nil, fmt.Errorf("load tpcb: %w", err)
		}
		if err := finishLoad(sys); err != nil {
			return nil, err
		}
		env := &kernelEnv{sys: sys, fatal: &fatals{k: sys.K}}
		var terms *workload.Terminals
		env.start = func(rec *opRecorder, sink func(*ioreq.Span)) func() {
			terms = workload.StartTerminals(sys.K, sys.Engine, &timed{inner: wl, rec: rec},
				workload.TerminalConfig{N: 16, Seed: seed, Counting: &rec.counting,
					OnFatal: env.fatal.on("terminal"), SpanSink: sink})
			return terms.Stop
		}
		env.check = func() error { return checkTPCBBalance(sys) }
		return env, nil
	},
}
