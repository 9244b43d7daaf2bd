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

// WearLeveler extends GCDriver with the background wear-leveling sweep
// contract: per-region erase-count spread and a cold-block migration
// step. noftl.Volume implements it.
type WearLeveler interface {
	WearSpread(region int) int
	WearLevelStep(rq ioreq.Req, region int) (bool, error)
}

// MaintConfig tunes StartMaintenance.
type MaintConfig struct {
	// OnError receives the first fatal maintenance error (nil: ignored).
	OnError func(error)
}

// sweepEvery is the wear-leveling sweep's period.
const sweepEvery = 50 * sim.Millisecond

// Maintenance is the handle over a running worker set.
type Maintenance struct {
	// GCSteps counts successful background GC victim collections.
	GCSteps int64
	// WearMoves counts cold-block migrations done by the sweep.
	WearMoves int64
	stopped   bool
	idle      []*sim.WaitQueue // where the GC workers park, per region
}

// Stop halts the workers: the idle ones at once, the busy ones after
// their step, the sweep at its next period.
func (m *Maintenance) Stop() {
	m.stopped = true
	for _, q := range m.idle {
		q.Wake()
	}
}

// StartMaintenance launches the DBMS's background flash-maintenance
// processes on kernel k: one GC worker per region driving GCStep while
// NeedsGC, plus — when gc also implements WearLeveler — a wear-leveling
// sweep that each period migrates cold blocks in the region with the
// widest erase-count spread. This is the paper's argument made
// concrete: maintenance runs when the DBMS schedules it, not when
// firmware decides mid-commit.
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
	wl, ok := gc.(WearLeveler)
	if !ok {
		return mt
	}
	k.Go("wear-sweep", func(p *sim.Proc) {
		rq := ioreq.Req{W: sim.ProcWaiter{P: p}, Class: ioreq.ClassGC}
		for !mt.stopped {
			p.Sleep(sweepEvery)
			if mt.stopped {
				return
			}
			// Sweep the region with the widest erase-count spread first;
			// ties break toward the lowest region for determinism.
			best, spread := -1, 0
			for r := 0; r < gc.Regions(); r++ {
				if s := wl.WearSpread(r); s > spread {
					best, spread = r, s
				}
			}
			if best < 0 {
				continue
			}
			did, err := wl.WearLevelStep(rq, best)
			if err != nil {
				fail(err)
				return
			}
			if did {
				mt.WearMoves++
			}
		}
	})
	return mt
}
