package storage

import (
	"noftl/internal/ioreq"
	"noftl/internal/sim"
)

// PrefetcherConfig configures the background read-ahead pool.
type PrefetcherConfig struct {
	// N is the number of prefetcher processes. More processes mean more
	// read-ahead reads in flight at once — the source of the cross-die
	// pipelining a sequential scan wants. Default 4.
	N int
	// OnError receives a prefetcher's fatal error; the process then
	// stops. Nil ignores errors (read-ahead is best-effort).
	OnError func(error)
}

// StartPrefetchers launches background read-ahead processes on the
// kernel. They drain the buffer pool's prefetch queue (filled by
// Engine.Scan when it detects a sequential heap scan) and load each
// requested page on a context declaring ioreq.ClassPrefetch.
// Several processes keep several reads in flight, which is what
// pipelines a sequential scan across the dies. An idle prefetcher parks
// until a request arrives for it. The returned stop function halts the
// idle ones at once and the busy ones after their load.
func (e *Engine) StartPrefetchers(k *sim.Kernel, cfg PrefetcherConfig) (stop func()) {
	if cfg.N <= 0 {
		cfg.N = 4
	}
	stopped := false
	for i := 0; i < cfg.N; i++ {
		k.Go("prefetcher", func(p *sim.Proc) {
			// Only the load is speculative: evicting a dirty victim to
			// make room stays ordinary write-back on ctx.
			ctx := NewIOCtx(sim.ProcWaiter{P: p})
			load := ctx.WithClass(ioreq.ClassPrefetch)
			for !stopped {
				id, ok := e.bp.PopPrefetch()
				if !ok {
					e.bp.idle.Wait(ctx.W, 0)
					continue
				}
				if err := e.bp.Prefetch(ctx, load, id); err != nil {
					if cfg.OnError != nil {
						cfg.OnError(err)
					}
					return
				}
			}
		})
	}
	return func() {
		stopped = true
		e.bp.idle.Wake()
	}
}
