package main

import (
	"math"

	"noftl/internal/system"
)

// layerCounters holds the per-layer readings that are not deltas of
// system.Snapshot: extremes sampled at the slice edges of the measure
// window, and the workload's own side counters.
type layerCounters struct {
	procsAlive int   // most simulated processes alive at a slice edge
	logFreeMin int64 // fewest free blocks of the log region at a slice edge
	// extra are workload-level counters by metric name (OLTP side stream,
	// scan rows, admission ratios, the FASTer comparison).
	extra map[string]float64
}

func (lc *layerCounters) begin(sys *system.System) {
	lc.logFreeMin = math.MaxInt64
	lc.sample(sys)
}

func (lc *layerCounters) sample(sys *system.System) {
	lc.procsAlive = max(lc.procsAlive, sys.K.Alive())
	if log := sys.Regions.Log("log"); log != nil {
		lc.logFreeMin = min(lc.logFreeMin, log.FreeBlocks())
	}
}

// set records one workload-level counter.
func (lc *layerCounters) set(name string, v float64) {
	if lc.extra == nil {
		lc.extra = map[string]float64{}
	}
	lc.extra[name] = v
}
