package storage

import (
	"noftl/internal/ioreq"
	"noftl/internal/sim"
)

// WriterAssociation selects how background db-writers divide the dirty
// pages among themselves (§3.2 of the paper).
type WriterAssociation int

// Writer association strategies.
const (
	// AssocGlobal partitions dirty pages by page number across writers,
	// ignoring physical placement: every writer ends up programming every
	// die and they contend for the same flash chips.
	AssocGlobal WriterAssociation = iota
	// AssocDieWise binds writer i to volume region (die) i mod regions:
	// each writer programs a disjoint set of dies, eliminating chip
	// contention. Requires a region-aware volume (NoFTL).
	AssocDieWise
)

// String names the strategy.
func (a WriterAssociation) String() string {
	if a == AssocDieWise {
		return "die-wise"
	}
	return "global"
}

// WriterConfig configures the background writer pool. Writers only write
// dirty pages back; flash garbage collection is the volume's (inline) or
// the maintenance workers' (sched.StartMaintenance), never theirs.
type WriterConfig struct {
	// N is the number of db-writer processes.
	N int
	// Association selects the dirty-page partitioning.
	Association WriterAssociation
	// Class, when not ioreq.ClassDefault, is declared on every request
	// the writers issue (per-request tagging); the default leaves routing
	// to the volume's static per-class device views.
	Class ioreq.Class
	// Tag is the stream tag the writers attach to their requests.
	Tag uint32
}

// writerPollInterval is the db-writers' idle poll period.
const writerPollInterval = 200 * sim.Microsecond

// StartWriters launches cfg.N db-writer processes on the kernel. Each
// writes back dirty pages of its share — its die, or its slice of the
// address space — and does nothing else. The returned stop function
// halts them (they drain at the next poll).
func (e *Engine) StartWriters(k *sim.Kernel, cfg WriterConfig) (stop func()) {
	// Above an eighth of the frames dirty the writers work continuously;
	// below it they only trickle.
	watermark := len(e.bp.frames) / 8
	stopped := false
	regions := e.vol.Regions()
	for i := 0; i < cfg.N; i++ {
		k.Go("db-writer", func(p *sim.Proc) {
			w := sim.ProcWaiter{P: p}
			ctx := &IOCtx{W: w, Class: cfg.Class, Tag: cfg.Tag}
			for !stopped {
				var worked bool
				var err error
				if cfg.Association == AssocDieWise {
					worked, err = e.bp.WriteBack(ctx, i%regions)
				} else {
					worked, err = e.bp.WriteBackGlobal(ctx, i, cfg.N)
				}
				if err != nil || !worked || e.bp.TotalDirty() < watermark {
					p.Sleep(writerPollInterval)
				}
			}
		})
	}
	return func() { stopped = true }
}

// WriteBackGlobal flushes the lowest dirty page assigned to writer
// `idx` of `n` under global association. Pages are partitioned in
// 64-page chunks of the logical address space, so every writer's set
// spans every die (a plain modulo would alias onto the die-wise
// striping when writers == dies and accidentally remove the chip
// contention this strategy is supposed to exhibit).
func (bp *BufferPool) WriteBackGlobal(ctx *IOCtx, idx, n int) (bool, error) {
	var pick *Frame
	for _, region := range bp.dirty {
		for _, f := range region {
			if f.pin > 0 || f.loading {
				continue
			}
			if int(f.ID>>6)%n != idx {
				continue
			}
			if pick == nil || f.ID < pick.ID {
				pick = f
			}
		}
	}
	if pick == nil {
		return false, nil
	}
	pick.pin++
	bp.stats.AsyncWrites++
	err := bp.writeFrame(ctx, pick)
	pick.pin--
	if err != nil {
		return false, err
	}
	return true, nil
}
