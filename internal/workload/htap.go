package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"noftl/internal/sim"
	"noftl/internal/stats"
	"noftl/internal/storage"
)

// Reader is one analytical client: a closed-loop sim.Proc running
// read-only queries back-to-back against the engine, with per-query
// latency accounting. M readers next to N OLTP terminals form the HTAP
// regime — the paper's motivating scenario where a sequential scan
// stream and a random OLTP stream collide on the same dies and the
// DBMS, owning the IO policy, decides who wins.
type Reader struct {
	ID      int
	Queries int64
	Retries int64           // lock-timeout restarts
	Hist    stats.Histogram // latency of counted queries
}

// ReaderConfig configures StartReaders.
type ReaderConfig struct {
	// N is the number of analytical reader processes.
	N int
	// Seed derives each reader's private RNG (seed + (id+1)*104729);
	// the offset stride keeps every reader's source distinct from every
	// OLTP terminal's (seed + id*7919) under a shared base seed.
	Seed int64
	// Counting gates Queries and Hist so warm-up queries are excluded;
	// nil counts from the start.
	Counting *bool
	// OnFatal receives a reader's fatal error; the reader then stops.
	// Nil ignores errors.
	OnFatal func(error)
}

// Readers is the handle over a running analytical reader set.
type Readers struct {
	All     []*Reader
	stopped bool
}

// StartReaders launches cfg.N analytical reader processes running wl
// against e on kernel k, closed-loop (no think time between queries).
// Readers observe Stop at their next query
// boundary.
func StartReaders(k *sim.Kernel, e *storage.Engine, wl Workload, cfg ReaderConfig) *Readers {
	rs := &Readers{}
	for i := 0; i < cfg.N; i++ {
		reader := &Reader{ID: i}
		rs.All = append(rs.All, reader)
		seed := cfg.Seed + int64(i+1)*104729
		k.Go(fmt.Sprintf("reader%d", i), func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed))
			ctx := storage.NewIOCtx(sim.ProcWaiter{P: p})
			for !rs.stopped {
				t0 := p.Now()
				err := wl.RunOne(ctx, e, rng)
				switch {
				case err == nil:
					if cfg.Counting == nil || *cfg.Counting {
						reader.Queries++
						reader.Hist.Add(p.Now() - t0)
					}
				case errors.Is(err, storage.ErrLockTimeout):
					reader.Retries++
				default:
					if cfg.OnFatal != nil {
						cfg.OnFatal(err)
					}
					return
				}
			}
		})
	}
	return rs
}

// Stop halts the readers at their next query boundary.
func (rs *Readers) Stop() { rs.stopped = true }

// Queries sums counted queries over all readers.
func (rs *Readers) Queries() int64 {
	var n int64
	for _, r := range rs.All {
		n += r.Queries
	}
	return n
}

// QueryHist merges the readers' query-latency histograms.
func (rs *Readers) QueryHist() stats.Histogram {
	var h stats.Histogram
	for _, r := range rs.All {
		h.AddHist(&r.Hist)
	}
	return h
}
