package sched

import (
	"fmt"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
)

// GCDriver is the volume-side contract for background garbage
// collection: the NeedsGC/GCStep hooks a noftl.Volume exposes per region
// (die). Background workers drive it so space reclamation never runs on
// the commit path. The request descriptor carries the workers' declared
// class (GC) so maintenance traffic is tagged at its origin. An idle
// worker parks on GCWaiters(region), which the volume wakes whenever
// NeedsGC can have turned true or a GCStep that did nothing can succeed.
type GCDriver interface {
	Regions() int
	NeedsGC(region int) bool
	GCStep(rq ioreq.Req, region int) (bool, error)
	GCWaiters(region int) *sim.WaitQueue
}

// MaintConfig tunes StartMaintenance.
type MaintConfig struct {
	// OnError receives the first fatal maintenance error (nil: ignored).
	OnError func(error)
}

// Maintenance is the handle over a running worker set.
type Maintenance struct {
	// GCSteps counts successful background GC victim collections.
	GCSteps int64
	stopped bool
	idle    []*sim.WaitQueue // where the GC workers park, per region
}

// Stop halts the workers: the idle ones at once, the busy ones after
// the step in flight.
func (m *Maintenance) Stop() {
	m.stopped = true
	for _, q := range m.idle {
		q.Wake()
	}
}

// StartMaintenance launches the DBMS's background flash-maintenance
// processes on kernel k: one GC worker per region driving GCStep while
// NeedsGC. Wear leveling rides on those collections (the volume moves a
// cold block every few erases of a die), so the workers are all of it.
// This is the paper's argument made concrete: maintenance runs when the
// DBMS schedules it, not when firmware decides mid-commit.
func StartMaintenance(k *sim.Kernel, gc GCDriver, cfg MaintConfig) *Maintenance {
	mt := &Maintenance{}
	fail := func(err error) {
		if cfg.OnError != nil {
			cfg.OnError(err)
		}
	}
	for r := 0; r < gc.Regions(); r++ {
		idle := gc.GCWaiters(r)
		mt.idle = append(mt.idle, idle)
		k.Go(fmt.Sprintf("gc-worker%d", r), func(p *sim.Proc) {
			rq := ioreq.Req{W: sim.ProcWaiter{P: p}, Class: ioreq.ClassGC}
			for !mt.stopped {
				if gc.NeedsGC(r) {
					did, err := gc.GCStep(rq, r)
					if err != nil {
						fail(err)
						return
					}
					if did {
						mt.GCSteps++
						continue
					}
				}
				idle.Wait(rq.W, 0)
			}
		})
	}
	return mt
}
