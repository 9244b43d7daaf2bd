package bench

import (
	"fmt"
	"slices"

	"noftl/internal/ioreq"
	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/stats"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// The one run loop. An experiment hands execute a run — what to load,
// an ordered list of starters, the phases — and gets back one RunResult.
// The lifecycle is the uFLIP methodology every experiment shares:
//
//	load (serial clock) → checkpoint → reset device time and counters
//	→ start background and client processes, in list order
//	→ warm-up (uncounted) → optional settle (counted, then counters
//	  reset) → measure → stop → drain (10 ms steps until the clients
//	  finish, ≤ 1 s) → Shutdown → collect
//
// Starter order is part of the determinism contract: sim.Kernel.Go
// numbers processes in creation order and breaks same-instant ties by
// it, so starting the same processes in a different order is a
// different (equally valid, but not byte-identical) simulation.

// Well-known stream tags for background machinery (per-tag attribution
// in command logs; client tags are caller-chosen and should avoid
// them).
const (
	tagWriters      = 0xDB0001 // db-writer pool
	tagCheckpointer = 0xDB0002
)

// run describes one measured run as data.
type run struct {
	name  string                     // error prefix, e.g. "tpcb on noftl"
	load  func(*system.System) error // serial load phase
	start []starter
	warm  sim.Time
	// settle, when positive, runs between warm-up and measure with
	// counting (and so request spans) already on; client counters reset
	// at its end, at a paused-kernel boundary, so whatever transient the
	// spans trigger stays out of the measured window.
	settle  sim.Time
	measure sim.Time
	// trackReads records the buffer pool's read-miss latency over the
	// measure window into RunResult.ReadHist.
	trackReads bool
	fault      func(proc string) error // Params.fault
}

// starter launches one kind of process on the running system and
// registers how to stop and collect it.
type starter func(*running)

// running is the loop's state while a run's processes exist.
type running struct {
	sys      *system.System
	fault    func(proc string) error // run.fault
	counting bool                    // gates client accounting: on after warm-up
	stopped  bool                    // observed by the checkpointer
	fatal    error
	stops    []func()
	maint    *sched.Maintenance
	groups   []*clientGroup
}

// fail records a process's fatal error; the first one fails the run.
func (r *running) fail(err error) {
	if r.fatal == nil {
		r.fatal = err
	}
}

// injected asks the tests' fault seam for proc's fatal error.
func (r *running) injected(proc string) error {
	if r.fault == nil {
		return nil
	}
	return r.fault(proc)
}

// clientGroup is one started set of closed-loop clients.
type clientGroup struct {
	name    string
	tag     uint32
	terms   *workload.Terminals // transactional clients, or
	readers *workload.Readers   // analytical readers
	rows    rowCounter          // readers' rows-visited source (optional)
	rowBase int64               // rows visited before the window
	rowsIn  int64               // rows visited in the window
}

// running reports whether a client of the group is still inside its loop.
func (g *clientGroup) running() bool {
	if g.terms != nil {
		return g.terms.Running() > 0
	}
	return g.readers.Running() > 0
}

// rowCounter is the optional analytical-workload capability reporting
// rows visited (workload.TPCH implements it).
type rowCounter interface{ RowsScanned() int64 }

// background returns the starters every run begins with, in their
// fixed order: flash maintenance workers (background-GC systems; the
// only processes that collect), db-writers, read-ahead prefetchers
// (engines with a prefetch window). The db-writers declare their intent
// at the origin: program class, their own stream tag.
func background(writers int, assoc storage.WriterAssociation) []starter {
	wc := storage.WriterConfig{N: writers, Association: assoc, Class: ioreq.ClassProgram, Tag: tagWriters}
	return []starter{
		func(r *running) {
			cfg := sched.MaintConfig{OnError: r.fail}
			if r.maint = r.sys.StartMaintenance(cfg); r.maint == nil {
				return
			}
			r.stops = append(r.stops, r.maint.Stop)
			if err := r.injected("maintenance"); err != nil {
				cfg.OnError(err)
			}
		},
		func(r *running) {
			r.stops = append(r.stops, r.sys.Engine.StartWriters(r.sys.K, wc))
		},
		func(r *running) {
			if r.sys.Engine.PrefetchWindow() <= 0 {
				return
			}
			cfg := storage.PrefetcherConfig{N: r.sys.Vol.Regions(), OnError: r.fail}
			r.stops = append(r.stops, r.sys.Engine.StartPrefetchers(r.sys.K, cfg))
			if err := r.injected("prefetcher"); err != nil {
				cfg.OnError(err)
			}
		},
	}
}

// checkpointer parameterises the periodic checkpoint process.
type checkpointer struct {
	tick sim.Time // poll period
	// every checkpoints on schedule (0: on log pressure only); logFrac
	// checkpoints earlier, once the log is 1/logFrac of the way to
	// wrapping into the anchored checkpoint.
	every   sim.Time
	logFrac uint64
	// class is the class the checkpointer declares beside its stream
	// tag. ClassProgram marks it background work: its page flushes AND
	// its log writes yield to commit-path appends. ClassDefault leaves
	// its log writes in the WAL class (WAL.bgLogClass).
	class ioreq.Class
}

// stdCheckpointer is the cadence and class of every TPS-style run.
var stdCheckpointer = checkpointer{tick: 100 * sim.Millisecond, every: 2 * sim.Second, logFrac: 2,
	class: ioreq.ClassProgram}

func (c checkpointer) start(r *running) {
	e := r.sys.Engine
	r.sys.K.Go("checkpointer", func(p *sim.Proc) {
		ctx := &storage.IOCtx{W: sim.ProcWaiter{P: p}, Class: c.class, Tag: tagCheckpointer}
		wal := e.Log()
		last := p.Now()
		for !r.stopped {
			//noftl:ignore timedretry the checkpointer's tick: a checkpoint every interval is its job
			p.Sleep(c.tick)
			if r.stopped {
				return
			}
			err := r.injected("checkpointer")
			if err == nil {
				if (c.every == 0 || p.Now()-last < c.every) && wal.SinceAnchor()*c.logFrac < wal.Capacity() {
					continue
				}
				err = e.Checkpoint(ctx)
			}
			if err != nil {
				r.fail(err)
				return
			}
			last = p.Now()
		}
	})
}

// terminals starts a group of closed-loop transactional clients. The
// loop owns the config's Counting, OnFatal and SpanSink; everything else
// (count, IDs, seed, think time, class, tag, deadline, per-terminal
// workloads, retry classification) is the caller's.
func terminals(name string, wl workload.Workload, cfg workload.TerminalConfig) starter {
	return func(r *running) {
		cfg.Counting, cfg.OnFatal = &r.counting, r.fail
		if r.sys.Tel != nil {
			cfg.SpanSink = r.sys.Tel.RecordSpan
		}
		g := &clientGroup{name: name, terms: workload.StartTerminals(r.sys.K, r.sys.Engine, wl, cfg)}
		if cfg.TagOf != nil {
			g.tag = cfg.TagOf(cfg.FirstID)
		}
		r.groups = append(r.groups, g)
		r.stops = append(r.stops, g.terms.Stop)
	}
}

// readers starts a group of closed-loop analytical readers.
func readers(name string, wl workload.Workload, n int, seed int64) starter {
	return func(r *running) {
		g := &clientGroup{name: name, readers: workload.StartReaders(r.sys.K, r.sys.Engine, wl,
			workload.ReaderConfig{N: n, Seed: seed, Counting: &r.counting, OnFatal: r.fail})}
		g.rows, _ = wl.(rowCounter)
		r.groups = append(r.groups, g)
		r.stops = append(r.stops, g.readers.Stop)
	}
}

// GroupResult is one client group's measure-window accounting.
type GroupResult struct {
	Name    string
	Tag     uint32 // the group's stream tag (0: untagged)
	Clients int
	// Transactional groups: counted commits, their rate and latency,
	// retries (lock timeouts plus whatever the group's Retry classified)
	// and commits that finished past their deadline.
	Committed      int64
	TPS            float64
	Commit         stats.Histogram
	Retries        int64
	DeadlineMisses int64
	// Analytical reader groups: counted queries, their latency, and
	// rows visited in the window (workloads that count them).
	Queries   int64
	QueryHist stats.Histogram
	Rows      int64
}

// RunResult is what one run measured: per-group client accounting and
// its totals over the transactional groups, the read-miss latency, the
// end-of-run cross-layer counter snapshot (device and scheduler
// counters restart after load, so they cover warm-up through drain),
// and the maintenance workers' progress.
type RunResult struct {
	Measure sim.Time
	Groups  []GroupResult // in start order

	TPS            float64 // sum of the groups' rates
	Committed      int64
	Retries        int64
	DeadlineMisses int64
	CommitHist     stats.Histogram
	// ReadHist is buffer-pool read-miss latency over the measure window
	// (empty unless the run tracks reads).
	ReadHist stats.Histogram

	system.Snapshot
	// Window is the buffer pool's accounting over the measure window
	// alone (Snapshot.Buffer covers the whole run).
	Window storage.BufferStats

	// Background maintenance progress (zero without BackgroundGC).
	GCSteps   int64
	WearMoves int64

	// Kernel is what the run cost the simulator itself.
	Kernel sim.Stats
}

// Group returns the named client group's result (nil if absent).
func (r *RunResult) Group(name string) *GroupResult {
	for i := range r.Groups {
		if r.Groups[i].Name == name {
			return &r.Groups[i]
		}
	}
	return nil
}

// BytesPerTx is flash bytes programmed per committed transaction
// (channel traffic into cells; copybacks never cross the bus). It
// divides the device's program bytes over warm-up AND measure by the
// commits of the measure window alone — an upper bound whose bias
// shrinks with the measure/warm ratio, comparable across the stacks and
// modes of one run, which is what the trajectory files diff.
func (r *RunResult) BytesPerTx() float64 {
	if r.Committed == 0 {
		return 0
	}
	return float64(r.Device.ProgramBytes) / float64(r.Committed)
}

// ErasesPerKTx normalizes block erases per thousand committed
// transactions — the flash-lifetime metric. (The window is fixed time,
// so a faster stack does more work; absolute erase counts would punish
// it for its own throughput.)
func (r *RunResult) ErasesPerKTx() float64 {
	if r.Committed == 0 {
		return 0
	}
	return float64(r.Device.Erases) * 1000 / float64(r.Committed)
}

// tenant narrows the result to one client group: that group's
// throughput, latency and deadline accounting, and none of the
// whole-system counters — device traffic cannot be split per tenant, so
// per-tenant rows report it as absent rather than duplicated.
func (r *RunResult) tenant(g *GroupResult) *RunResult {
	return &RunResult{Measure: r.Measure, Groups: []GroupResult{*g}, TPS: g.TPS,
		Committed: g.Committed, Retries: g.Retries, DeadlineMisses: g.DeadlineMisses,
		CommitHist: g.Commit}
}

// execute runs spec on a freshly built system.
func execute(sys *system.System, spec run) (*RunResult, error) {
	if err := spec.load(sys); err != nil {
		return nil, fmt.Errorf("bench: %s: load: %w", spec.name, err)
	}
	if err := sys.Engine.Checkpoint(sys.Ctx); err != nil {
		return nil, fmt.Errorf("bench: %s: checkpoint after load: %w", spec.name, err)
	}
	// The load ran on a private serial clock; restart the device
	// timelines and counters (including any scheduler's queue-wait
	// accounting, via the reset hooks) for the measured phase.
	sys.Dev.ResetTime()
	sys.Dev.ResetStats()

	r := &running{sys: sys, fault: spec.fault}
	for _, start := range spec.start {
		start(r)
	}

	k, bp := sys.K, sys.Engine.Buffer()
	res := &RunResult{Measure: spec.measure}
	k.RunFor(spec.warm)
	r.counting = true
	if spec.settle > 0 {
		k.RunFor(spec.settle)
		for _, g := range r.groups {
			if g.terms == nil {
				continue
			}
			for _, t := range g.terms.All {
				t.Committed, t.Retries, t.DeadlineMisses, t.Hist = 0, 0, 0, stats.Histogram{}
			}
		}
	}
	if spec.trackReads {
		bp.TrackReadLatency(&res.ReadHist)
	}
	bufBase := bp.Stats()
	for _, g := range r.groups {
		if g.rows != nil {
			g.rowBase = g.rows.RowsScanned()
		}
	}
	k.RunFor(spec.measure)
	r.counting = false
	bp.TrackReadLatency(nil)
	res.Window = bp.Stats().Sub(bufBase)
	for _, g := range r.groups {
		if g.rows != nil {
			g.rowsIn = g.rows.RowsScanned() - g.rowBase
		}
	}
	r.stopped = true
	for _, stop := range r.stops {
		stop()
	}
	// Let the loops observe the stop flags and the clients finish the
	// transaction in hand: one killed mid-flight leaves its latches taken.
	for i := 0; i < 100 && (i == 0 || slices.ContainsFunc(r.groups, (*clientGroup).running)); i++ {
		k.RunFor(10 * sim.Millisecond)
	}
	k.Shutdown()
	if r.fatal != nil {
		return nil, fmt.Errorf("bench: %s: %w", spec.name, r.fatal)
	}

	secs := spec.measure.Seconds()
	for _, g := range r.groups {
		gr := GroupResult{Name: g.name, Tag: g.tag}
		if g.terms != nil {
			gr.Clients = len(g.terms.All)
			gr.Committed = g.terms.Committed()
			gr.TPS = float64(gr.Committed) / secs
			gr.Commit = g.terms.CommitHist()
			gr.Retries = g.terms.Retries()
			gr.DeadlineMisses = g.terms.DeadlineMisses()
		} else {
			gr.Clients = len(g.readers.All)
			gr.Queries = g.readers.Queries()
			gr.QueryHist = g.readers.QueryHist()
			gr.Rows = g.rowsIn
		}
		res.Groups = append(res.Groups, gr)
		res.TPS += gr.TPS
		res.Committed += gr.Committed
		res.Retries += gr.Retries
		res.DeadlineMisses += gr.DeadlineMisses
		res.CommitHist.AddHist(&gr.Commit)
	}
	res.Snapshot = sys.Snapshot()
	res.Kernel = k.Stats()
	if r.maint != nil {
		res.GCSteps, res.WearMoves = r.maint.GCSteps, r.maint.WearMoves
	}
	return res, nil
}

// TPSConfig drives a throughput measurement on a caller-built system.
type TPSConfig struct {
	Workers     int // terminal processes running transactions
	Writers     int // background db-writers
	Association storage.WriterAssociation
	Warm        sim.Time // excluded from the TPS window
	Measure     sim.Time
	Seed        int64

	fault func(proc string) error // Params.fault
}

// RunTPS loads wl on the system (serial phase), then measures
// transaction throughput under the DES kernel: N terminal processes,
// background db-writers, a checkpointer, and — on a background-GC
// system — dedicated flash-maintenance workers.
func RunTPS(sys *system.System, wl workload.Workload, cfg TPSConfig) (*RunResult, error) {
	return execute(sys, run{
		name: fmt.Sprintf("%s on %s", wl.Name(), sys.Stack),
		load: func(sys *system.System) error { return wl.Load(sys.Ctx, sys.Engine) },
		start: append(background(cfg.Writers, cfg.Association),
			terminals("oltp", wl, workload.TerminalConfig{N: cfg.Workers, Seed: cfg.Seed}),
			stdCheckpointer.start),
		warm:       cfg.Warm,
		measure:    cfg.Measure,
		trackReads: true,
		fault:      cfg.fault,
	})
}
