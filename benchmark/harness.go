package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/telemetry/blame"
	"noftl/internal/workload"
)

// slicesPerWindow is how many equal pieces the measure window is cut
// into. Host time per operation is reported as the median piece, so a
// pause of the sandbox costs one piece and not the result.
const slicesPerWindow = 20

// Stream tags of the background machinery, so traced command logs can
// tell its traffic from the clients'.
const (
	tagWriters      = 0xBE0001
	tagCheckpointer = 0xBE0002
)

// opRecorder times the workload's primary operation from outside the
// stack: the wrapper reads the caller's simulated clock before and after
// each call and keeps every raw latency, so percentiles are exact rather
// than histogram buckets.
type opRecorder struct {
	counting  bool // set for the measure window only
	inflight  int  // operations begun and not yet returned
	attempted int64
	failed    int64
	lat       []sim.Time // latencies of the window's successful operations
}

func newOpRecorder() *opRecorder {
	return &opRecorder{lat: make([]sim.Time, 0, 1<<18)}
}

// reset forgets what was recorded so far (the settle phase).
func (r *opRecorder) reset() { r.attempted, r.failed, r.lat = 0, 0, r.lat[:0] }

// ops is the number of successful operations recorded so far.
func (r *opRecorder) ops() int64 { return int64(len(r.lat)) }

// timed wraps a workload so every RunOne is recorded.
type timed struct {
	inner workload.Workload
	rec   *opRecorder
}

func (t *timed) Name() string { return t.inner.Name() }

// Load is a no-op: set-up loads the inner workload before the clients
// start.
func (t *timed) Load(*storage.IOCtx, *storage.Engine) error { return nil }

func (t *timed) RunOne(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	r := t.rec
	t0 := ctx.W.Now()
	r.inflight++
	err := t.inner.RunOne(ctx, e, rng)
	r.inflight--
	if r.counting {
		r.attempted++
		if err != nil {
			r.failed++
		} else {
			r.lat = append(r.lat, ctx.W.Now()-t0)
		}
	}
	return err
}

// fatals collects errors from background processes and clients. Any
// entry fails the run: a dead writer or GC worker would otherwise show
// up only as a quietly different number.
type fatals struct {
	k    *sim.Kernel
	errs []string
}

// on returns the error callback for one named process.
func (f *fatals) on(proc string) func(error) {
	return func(err error) {
		f.errs = append(f.errs, fmt.Sprintf("%s died at sim %v: %v", proc, f.k.Now(), err))
	}
}

// nativeOpts is the stack every kernel workload runs on: region-managed
// NoFTL, priority command scheduler, background GC. A traced run adds
// the whole observability stack (spans retained, blame command log).
func nativeOpts(traced bool) []system.Option {
	opts := []system.Option{system.WithPriorityScheduler(), system.WithBackgroundGC()}
	if traced {
		opts = append(opts, system.WithBlame(blame.Config{TagNames: map[uint32]string{
			tagWriters: "writers", tagCheckpointer: "ckpt",
		}}))
	}
	return opts
}

// startBackground launches the machinery that runs beside the clients
// on every kernel workload: flash maintenance workers, die-wise
// db-writers, a checkpointer and (with a prefetch window) read-ahead
// processes. Writers and checkpointer declare the program class, so
// their log traffic does not outrank commit appends.
func startBackground(sys *system.System, f *fatals) (stop func()) {
	k := sys.K
	maint := sys.StartMaintenance(sched.MaintConfig{OnError: f.on("maintenance")})
	stopWriters := sys.Engine.StartWriters(k, storage.WriterConfig{
		N:           8,
		Association: storage.AssocDieWise,
		Class:       ioreq.ClassProgram,
		Tag:         tagWriters,
	})
	stopPrefetch := func() {}
	if sys.Engine.PrefetchWindow() > 0 {
		stopPrefetch = sys.Engine.StartPrefetchers(k, storage.PrefetcherConfig{
			N: sys.Vol.Regions(), OnError: f.on("prefetcher"),
		})
	}
	stopped := false
	k.Go("checkpointer", func(p *sim.Proc) {
		ctx := storage.NewIOCtx(sim.ProcWaiter{P: p}).
			WithClass(ioreq.ClassProgram).WithTag(tagCheckpointer)
		wal := sys.Engine.Log()
		last := p.Now()
		for !stopped {
			p.Sleep(20 * sim.Millisecond)
			if stopped {
				return
			}
			// Every 2 s, or earlier when the log region is a quarter
			// full: the serving mix wraps it between coarser ticks.
			if p.Now()-last < 2*sim.Second && wal.SinceAnchor()*4 < wal.Capacity() {
				continue
			}
			if err := sys.Engine.Checkpoint(ctx); err != nil {
				f.on("checkpointer")(err)
				return
			}
			last = p.Now()
		}
	})
	return func() {
		stopped = true
		stopWriters()
		stopPrefetch()
		maint.Stop()
	}
}

// finishLoad ends set-up the way every experiment driver does: anchor
// the load with a checkpoint, then restart the device timelines and
// counters so the run starts from a clean clock (uFLIP: state reset
// between phases).
func finishLoad(sys *system.System) error {
	if err := sys.Engine.Checkpoint(sys.Ctx); err != nil {
		return fmt.Errorf("checkpoint after load: %w", err)
	}
	sys.Dev.ResetTime()
	sys.Dev.ResetStats()
	return nil
}

// kernelEnv is a built and loaded system plus what the runner needs
// from its workload.
type kernelEnv struct {
	sys   *system.System
	fatal *fatals
	// side are extra recorders the workload feeds (a side stream, one
	// per tenant); the runner gates and drains them with the primary.
	side []*opRecorder
	// start launches the clients; primary records the workload's op and
	// sink receives the stack's request spans (nil: spans off). The
	// returned function stops the clients at their next boundary.
	start func(primary *opRecorder, sink func(*ioreq.Span)) (stop func())
	// begin and finish bracket the measure window for the workload's own
	// per-layer counters (both optional).
	begin  func()
	finish func(lc *layerCounters, simSeconds float64)
	// check verifies the workload's outputs once the clients drained.
	check func() error
}

// kernelSpec describes one kernel-driven workload.
type kernelSpec struct {
	name string
	// simPerSecond is how many simulated seconds the measure window
	// covers per requested second of run time, calibrated so that a
	// window takes about that long on the reference sandbox. The window
	// is fixed in simulated time, not host time, so that every sim_*
	// metric repeats exactly for a given seed and --seconds, and a
	// faster simulator shows as a lower host_us_per_op.
	simPerSecond float64
	// settle runs between warm-up and measure with counting on (the
	// serving front's burn guard needs spans to reach steady state).
	settle sim.Time
	build  func(seed int64, traced bool) (*kernelEnv, error)
}

// windowSnap is every counter the metrics read, captured at one edge of
// the measure window.
type windowSnap struct {
	snap   system.Snapshot
	mem    runtime.MemStats
	wallNs int64
	cpuS   float64
	simNow sim.Time
}

func takeSnap(snap system.Snapshot, now sim.Time) windowSnap {
	w := windowSnap{snap: snap, simNow: now}
	runtime.ReadMemStats(&w.mem)
	w.cpuS = cpuSeconds()
	w.wallNs = wallNs()
	return w
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// measured is one run's raw outcome; metrics.go turns it into the
// end-to-end and per-layer numbers.
type measured struct {
	setupS    []float64 // wall seconds of each set-up
	rec       *opRecorder
	lat       *latencySummary // of rec.lat, computed on first use
	sliceUs   []float64       // per slice: wall µs per successful op
	from, to  windowSnap
	liveHeap  uint64 // HeapInuse after a forced GC at the end of the window
	geo       nand.Geometry
	layers    layerCounters
	spanStats spanAgg
	// problems are failed output checks and background deaths: the run's
	// numbers are reported, marked incorrect.
	problems []string
}

// problem records a failed check.
func (m *measured) problem(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// slice runs one piece of the measure window and records its host time
// per successful operation.
func (m *measured) slice(run func()) {
	ops0, t0 := m.rec.ops(), wallNs()
	run()
	if n := m.rec.ops() - ops0; n > 0 {
		m.sliceUs = append(m.sliceUs, wallSince(t0)*1e6/float64(n))
	}
}

// run measures one kernel-driven workload: set-up (setups times, the
// last one is used), warm-up, the sliced measure window, drain, output
// checks, shutdown.
func (spec kernelSpec) run(seed int64, seconds float64, traced bool, setups int, tr *tracer) (*measured, error) {
	m := &measured{rec: newOpRecorder()}
	var env *kernelEnv
	for i := 0; i < setups; i++ {
		if env != nil {
			// Shutdown unwinds only parked processes; the ones the builder
			// started (die schedulers, telemetry sampler) have not run yet
			// and would pin the discarded system in memory. Let them reach
			// their first park.
			env.sys.K.RunFor(0)
			env.sys.K.Shutdown()
			env = nil
		}
		tr.begin("setup")
		t0 := wallNs()
		e, err := spec.build(seed, traced)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setupS = append(m.setupS, wallSince(t0))
		tr.end()
		env = e
	}
	sys, k := env.sys, env.sys.K
	defer k.Shutdown()
	m.geo = sys.Dev.Geometry()

	var sink func(*ioreq.Span)
	if traced {
		sink = func(s *ioreq.Span) {
			m.spanStats.add(s)
			sys.Tel.RecordSpan(s)
		}
	} else if sys.Tel != nil {
		sink = sys.Tel.RecordSpan
	}
	stopBackground := startBackground(sys, env.fatal)
	stopClients := env.start(m.rec, sink)
	recs := append([]*opRecorder{m.rec}, env.side...)
	counting := func(on bool) {
		for _, r := range recs {
			r.counting = on
		}
	}

	window := sim.Time(seconds * spec.simPerSecond * float64(sim.Second))
	slice := window / slicesPerWindow

	tr.begin("warm")
	k.RunFor(window / 8)
	if spec.settle > 0 {
		counting(true)
		k.RunFor(spec.settle)
		counting(false)
		for _, r := range recs {
			r.reset()
		}
	}
	tr.end()

	tr.begin("measure")
	counting(true)
	if env.begin != nil {
		env.begin()
	}
	m.layers.begin(sys)
	m.from = takeSnap(sys.Snapshot(), k.Now())
	for i := 0; i < slicesPerWindow; i++ {
		tr.begin("slice")
		m.slice(func() { k.RunFor(slice) })
		m.layers.sample(sys)
		tr.end()
	}
	m.to = takeSnap(sys.Snapshot(), k.Now())
	counting(false)
	m.liveHeap = liveHeap()
	tr.end()
	if env.finish != nil {
		env.finish(&m.layers, m.simSeconds())
	}

	// Drain: clients stop at their next operation boundary; run on until
	// none is mid-operation, so the output checks see only whole
	// transactions.
	stopClients()
	busy := func() bool {
		for _, r := range recs {
			if r.inflight > 0 {
				return true
			}
		}
		return false
	}
	for i := 0; busy(); i++ {
		if i == 100 {
			return nil, fmt.Errorf("clients still mid-operation 1 sim-s after stop")
		}
		k.RunFor(10 * sim.Millisecond)
	}
	stopBackground()
	k.RunFor(10 * sim.Millisecond)
	for _, e := range env.fatal.errs {
		m.problem("%s", e)
	}
	if err := env.check(); err != nil {
		m.problem("output check: %v", err)
	}
	return m, nil
}
