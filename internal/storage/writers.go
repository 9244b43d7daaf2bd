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
	// AssocGlobal partitions pages across writers in 64-page chunks of
	// the logical address space, ignoring physical placement: every
	// writer's set spans every die, so they contend for the same flash
	// chips (a plain modulo would alias onto the die-wise striping when
	// writers == dies and remove the contention this strategy exhibits).
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
	// the writers issue; the default leaves each command at its op
	// type's class and the writers' log flushes at the WAL class.
	Class ioreq.Class
	// Tag is the stream tag the writers attach to their requests.
	Tag uint32
}

// StartWriters launches cfg.N db-writer processes on the kernel. Each
// cleans the dirty frames of its share — its die, or its chunks of the
// address space — that the eviction clock reaches next (BufferPool.clean),
// parks while none is due, and does nothing else. The returned stop
// function halts them.
func (e *Engine) StartWriters(k *sim.Kernel, cfg WriterConfig) (stop func()) {
	return e.bp.startWriters(k, cfg)
}

func (bp *BufferPool) startWriters(k *sim.Kernel, cfg WriterConfig) (stop func()) {
	n := max(cfg.N, 1)
	if cfg.Association == AssocDieWise {
		n = bp.vol.Regions()
	}
	bp.layout(n, cfg.Association != AssocDieWise)
	shares := bp.shares
	stopped := false
	for i := 0; i < cfg.N; i++ {
		s := i % n
		k.Go("db-writer", func(p *sim.Proc) {
			w := sim.ProcWaiter{P: p}
			ctx := &IOCtx{W: w, Class: cfg.Class, Tag: cfg.Tag}
			for !stopped {
				if ok, err := bp.clean(ctx, s); (!ok || err != nil) && !stopped {
					shares[s].Wait(w, 0)
				}
			}
		})
	}
	return func() {
		stopped = true
		bp.layout(bp.vol.Regions(), false)
		for i := range shares {
			shares[i].Wake()
		}
	}
}

// StartCheckpointer starts the engine's checkpointer: one process that
// parks until the log wakes it (logDue, awaitRoom) and then checkpoints
// at the program class under tag. A checkpoint error goes to onError and
// ends the process. The returned stop function ends it once any
// checkpoint in hand is done.
func (e *Engine) StartCheckpointer(k *sim.Kernel, tag uint32, onError func(error)) (stop func()) {
	stopped := false
	k.Go("checkpointer", func(p *sim.Proc) {
		ctx := &IOCtx{W: sim.ProcWaiter{P: p}, Class: ioreq.ClassProgram, Tag: tag}
		for !stopped {
			e.wal.ckpt.Wait(ctx.W, 0)
			if stopped {
				return
			}
			if err := e.Checkpoint(ctx); err != nil {
				onError(err)
				return
			}
		}
	})
	return func() {
		stopped = true
		e.wal.ckpt.Grant()
	}
}
