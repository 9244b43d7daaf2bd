package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
	"noftl/internal/stats"
	"noftl/internal/storage"
)

// Terminal is one simulated client terminal: a closed-loop sim.Proc
// running transactions back-to-back against the engine, with
// per-transaction commit-latency accounting. N terminals together form
// the concurrent multi-terminal workload the command-scheduling
// experiments need — the regime where foreground transactions, background
// db-writers and flash maintenance all contend for the same dies.
type Terminal struct {
	ID             int
	Tag            uint32 // stream tag riding on every request (0: untagged)
	Committed      int64
	Retries        int64           // lock-timeout restarts
	DeadlineMisses int64           // counted commits past their deadline
	Hist           stats.Histogram // commit latency of counted transactions
}

// TerminalConfig configures StartTerminals.
type TerminalConfig struct {
	// N is the number of terminal processes.
	N int
	// FirstID offsets terminal IDs: terminals number FirstID..FirstID+N-1.
	// Span IDs derive from the terminal ID, so two terminal groups
	// feeding one span sink (the QoS demo's tenants) must not overlap.
	FirstID int
	// Seed derives each terminal's private RNG (seed + id*7919).
	Seed int64
	// Think is idle time between transactions (0: closed loop).
	Think sim.Time
	// Counting gates Committed and Hist so warm-up transactions are
	// excluded; nil counts from the start.
	Counting *bool
	// OnFatal receives a terminal's fatal error; the terminal then
	// stops. Nil ignores errors.
	OnFatal func(error)
	// ClassOf, when non-nil, assigns terminal id's requests a scheduler
	// class — the per-request QoS tier every command of its transactions
	// dispatches at (ioreq.ClassDefault: the volume's routing decides).
	ClassOf func(id int) ioreq.Class
	// TagOf, when non-nil, assigns terminal id's requests a stream tag,
	// carried down to the command log for per-stream attribution.
	TagOf func(id int) uint32
	// DeadlineAfter, when non-nil and positive for a terminal, stamps
	// each of its transactions with a completion deadline that far into
	// the future; a priority scheduler promotes the transaction's
	// still-queued commands ahead of their class once it passes.
	DeadlineAfter func(id int) sim.Time
	// SpanSink, when non-nil, turns on request spans: every counted
	// transaction runs under a fresh ioreq.Span whose per-layer stage
	// timings are delivered here at commit (typically
	// telemetry.Telemetry.RecordSpan).
	SpanSink func(*ioreq.Span)
	// WorkloadOf, when non-nil, gives terminal id its own workload in
	// place of the shared one (the serving-front driver binds each
	// terminal to its own session this way). Returning nil keeps the
	// shared workload.
	WorkloadOf func(id int) Workload
	// Retry, when non-nil, classifies extra errors as retryable: a
	// transaction failing with one counts a retry (like a lock timeout)
	// instead of killing the terminal. Admission-shed errors are the
	// motivating case — the client backs off and tries again.
	Retry func(error) bool
}

// Terminals is the handle over a running terminal set.
type Terminals struct {
	All     []*Terminal
	stopped bool
}

// StartTerminals launches cfg.N terminal processes running wl against e
// on kernel k. Terminals observe Stop at their next transaction
// boundary.
func StartTerminals(k *sim.Kernel, e *storage.Engine, wl Workload, cfg TerminalConfig) *Terminals {
	ts := &Terminals{}
	for n := 0; n < cfg.N; n++ {
		i := cfg.FirstID + n
		term := &Terminal{ID: i}
		ts.All = append(ts.All, term)
		seed := cfg.Seed + int64(i)*7919
		if cfg.TagOf != nil {
			term.Tag = cfg.TagOf(i)
		}
		twl := wl
		if cfg.WorkloadOf != nil {
			if w := cfg.WorkloadOf(i); w != nil {
				twl = w
			}
		}
		k.Go(fmt.Sprintf("terminal%d", i), func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed))
			ctx := storage.NewIOCtx(sim.ProcWaiter{P: p})
			if cfg.ClassOf != nil {
				ctx.Class = cfg.ClassOf(term.ID)
			}
			ctx.Tag = term.Tag
			var dlAfter sim.Time
			if cfg.DeadlineAfter != nil {
				dlAfter = cfg.DeadlineAfter(term.ID)
			}
			var spanSeq uint64
			for !ts.stopped {
				t0 := p.Now()
				if dlAfter > 0 {
					ctx.Deadline = t0 + dlAfter
				}
				ctx.Span = nil
				if cfg.SpanSink != nil {
					spanSeq++
					sp := ioreq.NewSpan(uint64(term.ID)<<32|spanSeq, term.ID, term.Tag)
					sp.Deadline = ctx.Deadline
					sp.Begin(t0)
					ctx.Span = sp
				}
				err := twl.RunOne(ctx, e, rng)
				switch {
				case err == nil:
					if cfg.Counting == nil || *cfg.Counting {
						now := p.Now()
						term.Committed++
						term.Hist.Add(now - t0)
						if ctx.Deadline > 0 && now > ctx.Deadline {
							term.DeadlineMisses++
						}
						if ctx.Span != nil {
							ctx.Span.Finish(now)
							cfg.SpanSink(ctx.Span)
						}
					}
				case errors.Is(err, storage.ErrLockTimeout) ||
					(cfg.Retry != nil && cfg.Retry(err)):
					term.Retries++
				default:
					if cfg.OnFatal != nil {
						cfg.OnFatal(err)
					}
					return
				}
				if cfg.Think > 0 {
					p.Sleep(cfg.Think)
				}
			}
		})
	}
	return ts
}

// Stop halts the terminals at their next transaction boundary.
func (ts *Terminals) Stop() { ts.stopped = true }

// Committed sums committed (counted) transactions over all terminals.
func (ts *Terminals) Committed() int64 {
	var n int64
	for _, t := range ts.All {
		n += t.Committed
	}
	return n
}

// Retries sums lock-timeout restarts over all terminals.
func (ts *Terminals) Retries() int64 {
	var n int64
	for _, t := range ts.All {
		n += t.Retries
	}
	return n
}

// DeadlineMisses sums counted commits that finished past their deadline
// over all terminals.
func (ts *Terminals) DeadlineMisses() int64 {
	var n int64
	for _, t := range ts.All {
		n += t.DeadlineMisses
	}
	return n
}

// CommitHist merges the terminals' commit-latency histograms.
func (ts *Terminals) CommitHist() stats.Histogram {
	var h stats.Histogram
	for _, t := range ts.All {
		h.AddHist(&t.Hist)
	}
	return h
}

// TagCommitHist merges the commit-latency histograms of the terminals
// carrying one stream tag.
func (ts *Terminals) TagCommitHist(tag uint32) stats.Histogram {
	var h stats.Histogram
	for _, t := range ts.All {
		if t.Tag == tag {
			h.AddHist(&t.Hist)
		}
	}
	return h
}
