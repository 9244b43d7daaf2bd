// Package system assembles full NoFTL storage stacks: NAND device,
// flash management (host-side volumes and regions, or a conventional
// on-device FTL behind the legacy block interface), an optional native
// command scheduler, and the storage engine formatted on top — one call
// instead of five layers of hand-wiring.
//
// It is the implementation behind the public noftl.NewSystem facade and
// behind the experiment drivers in package bench, so examples, commands
// and benchmarks all build their stacks the same way.
package system

import (
	"fmt"

	"noftl/internal/blockdev"
	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/region"
	"noftl/internal/sched"
	"noftl/internal/serve"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/telemetry"
	"noftl/internal/telemetry/blame"
	"noftl/internal/telemetry/health"
)

// Stack names a storage architecture under comparison.
type Stack string

// The storage stacks of Figure 6: the NoFTL architecture versus the
// conventional architecture with an on-device FTL behind a block
// interface.
const (
	StackNoFTL   Stack = "noftl"
	StackFaster  Stack = "faster"
	StackDFTL    Stack = "dftl"
	StackPagemap Stack = "pagemap"
	// StackNoFTLDelta is the NoFTL architecture with the in-place-append
	// flush path on: small buffer-pool flushes go out as page
	// differentials instead of full page programs.
	StackNoFTLDelta Stack = "noftl-delta"
	// StackNoFTLSingle hosts WAL and data on ONE single-policy NoFTL
	// volume (the WAL gets a page window carved from the same page-mapped
	// space): every write stream shares one mapping scheme, one GC and
	// one set of frontiers. The regions ablation's baseline.
	StackNoFTLSingle Stack = "noftl-single"
	// StackNoFTLRegions carves the die array with the region manager:
	// the WAL lives on a native append-only log region (block-granular
	// mapping, truncation-on-checkpoint GC) and the data pages on a
	// page-mapped region — per-region policies plus object placement.
	StackNoFTLRegions Stack = "noftl-regions"
)

// System is an engine mounted on one storage stack.
type System struct {
	Stack    Stack
	Engine   *storage.Engine
	Dev      *flash.Device
	Vol      storage.Volume
	NoFTL    *noftl.Volume    // nil for block-device stacks
	Regions  *region.Manager  // set for the region-managed stack
	Sched    *sched.Scheduler // set by a scheduler option
	FTLStats func() ftl.Stats
	Ctx      *storage.IOCtx
	K        *sim.Kernel // DES kernel; block-device queueing binds to it
	// Tel is the cross-layer telemetry pipeline (nil unless an option
	// asked for it): a metrics registry over every layer's counters, a
	// sim-time sampler, and a flight recorder for the slowest spans.
	Tel *telemetry.Telemetry
	// CmdLog is the system-owned per-die command timeline feeding blame
	// analysis: one event per dispatched command (empty unless WithBlame
	// attached it).
	CmdLog []sched.Event
	// Serve is the serving front (nil until StartServe): the tenant
	// catalog, session record API and admission controller over Engine.
	Serve *serve.Front

	// blameCfg remembers the blame configuration for System.Blame.
	blameCfg *blame.Config
	// Reopen builds again from what the system was built from.
	cfg    Config
	optFns []Option

	memLog storage.Volume // the memory log of the stacks without a log on flash
	// backgroundGC records that the NoFTL volume was built for
	// worker-driven GC: StartMaintenance then starts the workers.
	backgroundGC bool
}

// options is what the Option functions tune: the optional subsystems
// of a System. The zero value is the classic build: no command
// scheduler, GC inline at the volume's low-water mark.
type options struct {
	// sched attaches a native command scheduler to the device and routes
	// the NoFTL volume's (and log region's) commands through its device
	// (Scheduler.Dev). Block-device stacks ignore it — an on-device FTL behind the
	// legacy interface is exactly the thing the host cannot schedule.
	sched         *sched.Policy
	backgroundGC  bool
	scanResistant bool
	prefetch      int
	telemetry     *telemetry.Config
	// blame implies a scheduler (default priority) and telemetry with
	// span retention.
	blame *blame.Config
}

// New assembles a full system from a config plus options — NAND device,
// flash management (host- or device-side), volume adapter, optional
// scheduler and observability, formatted engine. It is the one builder
// entry: the public noftl.NewSystem facade, the experiment drivers and
// the benchmark all come through here. Every stack logs through one
// append-only WAL format; only its medium differs. The single-volume
// stack keeps it on a ring over a window of its NoFTL volume, the
// region-managed stack on its sequential log region, and every other
// stack on a ring over a zero-latency memory volume, which takes the
// log's latency out of their measured differences but not its
// capacity: committers park when three quarters of it are held.
func New(cfg Config, optFns ...Option) (*System, error) {
	var devCfg flash.Config
	if cfg.Device != nil {
		devCfg = *cfg.Device
	} else {
		dies := cfg.Dies
		if dies <= 0 {
			dies = 8
		}
		mb := cfg.CapacityMB
		if mb <= 0 {
			mb = 64
		}
		devCfg = flash.EmulatorConfig(dies, mb, nand.SLC)
	}
	devCfg.Nand.StoreData = true
	return build(cfg, optFns, flash.New(devCfg), nil)
}

// Reopen restarts a crashed system: the kernel shuts down, the device
// timelines restart at zero (counters keep counting), and the same config
// and options build the stack again over the same device, rebuilding its
// mappings from OOB and running ARIES instead of formatting, charged to
// the new system's Ctx. Block-device stacks refuse, leaving s as it was.
func (s *System) Reopen() (*System, error) {
	if s.NoFTL == nil {
		return nil, fmt.Errorf("system: %s cannot reopen: its mapping lives in the device's FTL", s.Stack)
	}
	s.K.Shutdown()
	s.Dev.ResetTime()
	return build(s.cfg, s.optFns, s.Dev, s)
}

// build assembles the stack of cfg over dev. With crashed nil it formats
// a fresh one; otherwise it rebuilds crashed's stack from what dev holds.
func build(cfg Config, optFns []Option, dev *flash.Device, crashed *System) (_ *System, err error) {
	var opts options
	for _, o := range optFns {
		o(&opts)
	}
	stack := cfg.Stack
	if stack == "" {
		stack = StackNoFTLRegions
	}
	frames := cfg.Frames
	if frames <= 0 {
		frames = 256
	}
	k := sim.New()
	// A failed build must not leak the procs already created on k (die
	// schedulers, the sampler).
	defer func() {
		if err != nil {
			k.Shutdown()
		}
	}()
	s := &System{Stack: stack, Dev: dev, Ctx: storage.NewIOCtx(&sim.ClockWaiter{}), K: k,
		backgroundGC: opts.backgroundGC, cfg: cfg, optFns: optFns}
	geo := dev.Geometry()
	pageSize := geo.PageSize

	if opts.blame != nil {
		// Blame needs the full command timeline and the spans to join it
		// against: a scheduler (priority unless one was asked for) whose
		// trace hook feeds CmdLog, and span retention. The telemetry
		// config is copied before mutation so option values stay
		// caller-owned.
		if opts.sched == nil {
			p := sched.Priority
			opts.sched = &p
		}
		s.blameCfg = opts.blame
		tc := telemetry.Config{}
		if opts.telemetry != nil {
			tc = *opts.telemetry
		}
		tc.RetainSpans = true
		opts.telemetry = &tc
	}

	if opts.sched != nil {
		sc := sched.Config{Policy: *opts.sched}
		if opts.blame != nil {
			sc.Trace = func(ev sched.Event) { s.CmdLog = append(s.CmdLog, ev) }
		}
		s.Sched = sched.New(k, dev, sc)
	}
	var io flash.Dev // nil: the raw device
	if s.Sched != nil {
		io = s.Sched.Dev()
	}
	var log storage.AppendLog
	newVolume := func(vc noftl.Config) (*noftl.Volume, error) {
		if crashed != nil {
			return noftl.Rebuild(dev, vc, s.Ctx.Req())
		}
		return noftl.New(dev, vc)
	}

	switch stack {
	case StackNoFTL, StackNoFTLDelta:
		v, err := newVolume(noftl.Config{Dev: io, BackgroundGC: opts.backgroundGC})
		if err != nil {
			return nil, err
		}
		s.NoFTL = v
		s.Vol = storage.NewNoFTLVolume(v)
		s.FTLStats = v.Stats
	case StackFaster:
		f, err := ftl.NewFasterFTL(dev, ftl.FasterConfig{SecondChance: true})
		if err != nil {
			return nil, err
		}
		s.Vol = storage.NewBlockVolume(blockdev.New(f, blockdev.Config{Kernel: k}), pageSize)
		s.FTLStats = f.Stats
	case StackDFTL:
		// CMT sized to ~2% of the device's pages: the device-RAM-to-
		// capacity ratio of SATA-era controllers, which is what makes
		// DFTL's translation traffic visible (§3.1).
		cmt := int(geo.TotalPages() / 50)
		f, err := noftl.NewDFTL(dev, ftl.DFTLConfig{CMTEntries: cmt})
		if err != nil {
			return nil, err
		}
		s.Vol = storage.NewBlockVolume(blockdev.New(f, blockdev.Config{Kernel: k}), pageSize)
		s.FTLStats = f.Stats
	case StackPagemap:
		f, err := noftl.NewPageFTL(dev, ftl.PageFTLConfig{})
		if err != nil {
			return nil, err
		}
		s.Vol = storage.NewBlockVolume(blockdev.New(f, blockdev.Config{Kernel: k}), pageSize)
		s.FTLStats = f.Stats
	case StackNoFTLSingle:
		// Single-policy baseline with the WAL on flash: one volume, one
		// mapping scheme, one write frontier for every stream (hints
		// ignored); the log is a ring over a window of the page space.
		v, err := newVolume(noftl.Config{DisableHints: true, Dev: io,
			BackgroundGC: opts.backgroundGC})
		if err != nil {
			return nil, err
		}
		s.NoFTL = v
		s.FTLStats = v.Stats
		full := storage.NewNoFTLVolume(v)
		logPages := logWindowPages(v.LogicalPages(), geo.Dies())
		logVol, err := storage.NewSubVolume(full, 0, logPages)
		if err != nil {
			return nil, err
		}
		log = storage.NewVolumeLog(logVol)
		s.Vol, err = storage.NewSubVolume(full, logPages, v.LogicalPages()-logPages)
		if err != nil {
			return nil, err
		}
	case StackNoFTLRegions:
		// Region-managed placement: the WAL on the sequential log region,
		// heaps and B+-trees on the page-mapped data region.
		specs := cfg.Regions
		if specs == nil {
			specs = region.DefaultDBLayout(regionLogDies(geo.Dies()))
		}
		var m *region.Manager
		if crashed != nil {
			m, err = region.Rebuild(dev, specs, io, opts.backgroundGC, s.Ctx.Req())
		} else {
			m, err = region.New(dev, specs, io, opts.backgroundGC)
		}
		if err != nil {
			return nil, err
		}
		dataRegion, walRegion, err := m.Mount()
		if err != nil {
			return nil, err
		}
		s.Regions = m
		s.NoFTL = dataRegion.Vol
		s.FTLStats = m.Stats
		s.Vol = storage.NewNoFTLVolume(dataRegion.Vol)
		log = storage.NewFlashLog(walRegion.Log)
	default:
		return nil, fmt.Errorf("system: unknown stack %q", stack)
	}

	engCfg := storage.EngineConfig{
		BufferFrames:   frames,
		DeltaWrites:    stack == StackNoFTLDelta,
		ScanResistant:  opts.scanResistant,
		PrefetchWindow: opts.prefetch,
	}
	if log == nil {
		// A separate memory log device: it survives the crash.
		if crashed != nil {
			s.memLog = crashed.memLog
		} else {
			s.memLog = storage.NewMemVolume(pageSize, 1<<14)
		}
		log = storage.NewVolumeLog(s.memLog)
	}
	if crashed == nil {
		err = storage.FormatLog(s.Ctx, s.Vol, log)
	}
	if err == nil {
		s.Engine, err = storage.OpenLog(s.Ctx, s.Vol, log, engCfg)
	}
	if err != nil {
		return nil, err
	}
	s.startTelemetry(opts)
	return s, nil
}

// startTelemetry builds the metrics registry over the assembled layers
// and starts the sim-time sampler. Registration order fixes the series'
// column order, so it must stay deterministic: fixed layers first, then
// optional ones gated on what the stack attached.
func (s *System) startTelemetry(opts options) {
	tc := opts.telemetry
	if tc == nil {
		return
	}
	t := telemetry.New(*tc)
	s.Tel = t

	dev := s.Dev
	t.Reg.Counter("flash.reads", func() int64 { return dev.Stats().Reads })
	t.Reg.Counter("flash.programs", func() int64 { return dev.Stats().Programs })
	t.Reg.Counter("flash.erases", func() int64 { return dev.Stats().Erases })
	t.Reg.Counter("flash.program_bytes", func() int64 { return dev.Stats().ProgramBytes })
	// Suspensions are the scheduler's count (0 without one); the column
	// keeps its PR 6 name and position.
	t.Reg.Counter("flash.erase_suspends", func() int64 {
		if s.Sched == nil {
			return 0
		}
		return s.Sched.Stats().EraseSuspends
	})

	if fs := s.FTLStats; fs != nil {
		t.Reg.Counter("ftl.host_writes", func() int64 { return fs().HostWrites })
		t.Reg.Counter("ftl.gc_copybacks", func() int64 { return fs().GCCopybacks })
		t.Reg.Gauge("ftl.wa", func() float64 { return fs().WriteAmplification() })
	}
	if v := s.NoFTL; v != nil {
		t.Reg.Counter("noftl.live_pages", v.LivePages)
		t.Reg.Counter("noftl.free_blocks", v.FreeBlocks)
	}
	if sc := s.Sched; sc != nil {
		for c := sched.Class(0); c < sched.NumClasses; c++ {
			c := c
			t.Reg.Gauge("sched.wait."+c.String()+"_us", func() float64 {
				st := sc.Stats()
				return float64(st.MeanWait(c)) / 1e3
			})
			t.Reg.Counter("sched.sched."+c.String(), func() int64 {
				return sc.Stats().Scheduled[c]
			})
		}
		dies := dev.Geometry().Dies()
		t.Reg.Counter("sched.depth", func() int64 {
			var n int64
			for d := 0; d < dies; d++ {
				n += int64(sc.QueueDepth(d))
			}
			return n
		})
		t.Reg.Counter("sched.deadline_promotions", func() int64 {
			return sc.Stats().DeadlinePromotions
		})
	}
	bp := s.Engine.Buffer()
	t.Reg.Counter("buffer.hits", func() int64 { return bp.Stats().Hits })
	t.Reg.Counter("buffer.misses", func() int64 { return bp.Stats().Misses })
	t.Reg.Counter("buffer.evictions", func() int64 { return bp.Stats().Evictions })
	t.Reg.Gauge("buffer.hit_rate", func() float64 {
		st := bp.Stats()
		if st.Hits+st.Misses == 0 {
			return 0
		}
		return float64(st.Hits) / float64(st.Hits+st.Misses)
	})
	if wal := s.Engine.Log(); wal != nil {
		t.Reg.Counter("wal.appends", func() int64 { return wal.Appends })
		t.Reg.Counter("wal.bytes", func() int64 { return wal.BytesLogged })
	}

	// Device-health gauges: cheap scans of the NAND array's wear state
	// plus volume occupancy, registered last so earlier series keep
	// their PR 6 column positions.
	arr := dev.Array()
	t.Reg.Gauge("health.wear_spread", func() float64 {
		ws := arr.Wear()
		return float64(ws.Max - ws.Min)
	})
	t.Reg.Gauge("health.bad_blocks", func() float64 {
		c := arr.Counters()
		return float64(c.FactoryBad + c.GrownBad)
	})
	if v := s.NoFTL; v != nil {
		t.Reg.Gauge("health.occupancy", func() float64 {
			total := v.LogicalPages()
			if total == 0 {
				return 0
			}
			return float64(v.LivePages()) / float64(total)
		})
	}

	// The simulator observing itself, after every simulated column.
	t.Reg.Counter("sim.events", func() int64 { return int64(s.K.Stats().Events) })
	t.Reg.Counter("sim.resumes", func() int64 { return int64(s.K.Stats().Resumes) })
	t.Reg.Counter("sim.switches", func() int64 { return int64(s.K.Stats().Switches) })
	t.Reg.Gauge("sim.heap_max", func() float64 { return float64(s.K.Stats().MaxPending) })

	t.Start(s.K)
}

// regionLogDies sizes the log region: one die, or two on wide arrays.
// logWindowPages derives the single-volume baseline's WAL share from
// the same rule, so the A6 comparison can never measure a log-capacity
// asymmetry by accident.
func regionLogDies(dies int) int {
	if dies >= 16 {
		return 2
	}
	return 1
}

// logWindowPages sizes the single-volume stack's WAL ring — a window of
// its NoFTL volume whose truncated pages the ring deallocates — to the
// same die share the region-managed stack gives its log region, with a
// small floor so checkpoints fit.
func logWindowPages(total int64, dies int) int64 {
	n := total * int64(regionLogDies(dies)) / int64(dies)
	if n < 256 {
		n = 256
	}
	return n
}

// Close checkpoints the engine (flushing dirty pages and anchoring the
// log) and shuts the simulation kernel down. The system is not usable
// afterwards.
func (s *System) Close() error {
	err := s.Engine.Close(s.Ctx)
	s.K.Shutdown()
	return err
}

// Blame runs the latency root-cause engine over the system-owned
// command log and the flight recorder's retained spans: per-command
// queue waits attributed to the commands that occupied the die ahead,
// aggregated into the victim×culprit interference matrix, per-span
// blame decompositions and flame-graph exports. It returns nil unless
// the system was built with WithBlame. Call it after the run (it
// analyzes whatever the log and recorder hold at that point).
func (s *System) Blame() *blame.Report {
	if s.blameCfg == nil {
		return nil
	}
	return blame.Analyze(s.CmdLog, s.Tel.Spans(), *s.blameCfg)
}

// Health builds a device-health snapshot of the system as it stands,
// read straight off its layers: per-die wear heatmaps and load from the
// device, its NAND array and the scheduler, per-region occupancy and GC
// efficiency from the region manager (region stacks only), and the
// sampled timelines when telemetry is attached (none otherwise).
func (s *System) Health() *health.Snapshot {
	geo := s.Dev.Geometry()
	arr := s.Dev.Array()
	snap := &health.Snapshot{TNs: s.K.Now(), Device: health.DeviceInfo{
		Dies:          geo.Dies(),
		PlanesPerDie:  geo.PlanesPerDie,
		BlocksPerDie:  geo.BlocksPerDie(),
		PagesPerBlock: geo.PagesPerBlock,
		PageSize:      geo.PageSize,
	}}
	var depths []int
	if s.Sched != nil {
		depths = s.Sched.QueueDepths()
	}
	for die := 0; die < geo.Dies(); die++ {
		d := health.DieHealth{
			Die:       die,
			Blocks:    arr.DieWear(die),
			BadBlocks: arr.DieBadBlocks(die),
			BusyNs:    s.Dev.DieBusy(die),
		}
		if die < len(depths) {
			d.QueueDepth = depths[die]
		}
		ws := arr.Wear(die)
		d.EraseMin, d.EraseMax, d.EraseMean = ws.Min, ws.Max, ws.Mean
		snap.Dies = append(snap.Dies, d)
	}
	if s.Regions != nil {
		page := int64(geo.PageSize)
		for _, rs := range s.Regions.RegionStats() {
			f := rs.FTL
			snap.Regions = append(snap.Regions, health.RegionHealth{
				Name:          rs.Name,
				Mapping:       rs.Mapping.String(),
				Dies:          rs.Dies,
				LivePages:     rs.LivePages,
				CapacityPages: rs.CapacityPages,
				Occupancy:     rs.Occupancy(),
				FreeBlocks:    rs.FreeBlocks,
				EraseMin:      rs.MinErase,
				EraseMax:      rs.MaxErase,
				EraseAvg:      rs.AvgErase,
				GC: health.GCHealth{
					Erases:         f.Erases,
					CopyPages:      f.GCPages(),
					ValidCopyRatio: f.ValidCopyRatio(geo.PagesPerBlock),
					WA:             f.WriteAmplification(),
					HostBytes:      f.HostWrites * page,
					DeltaBytes:     f.DeltaBytes,
					GCBytes:        f.GCPages() * page,
					WearBytes:      f.WearMoves * page,
					FoldBytes:      f.Folds * page,
				},
			})
		}
	}
	var series *telemetry.Series
	if s.Tel != nil {
		series = s.Tel.Series()
	}
	snap.Finalize(series)
	return snap
}

// Snapshot captures every layer's counters at one instant: the device,
// the flash management (host- or device-side), the scheduler (zero
// value without one), the buffer pool, the WAL and the per-region rows
// (nil without a region manager).
type Snapshot struct {
	Device  flash.Stats
	FTL     ftl.Stats
	Sched   sched.Stats
	Buffer  storage.BufferStats
	Regions []region.RegionStats
	// WALAppends and WALBytes count log records appended and their bytes.
	WALAppends int64
	WALBytes   int64
}

// Snapshot captures the system's cross-layer counters.
func (s *System) Snapshot() Snapshot {
	snap := Snapshot{
		Device: s.Dev.Stats(),
		Buffer: s.Engine.Buffer().Stats(),
	}
	if s.FTLStats != nil {
		snap.FTL = s.FTLStats()
	}
	if s.Sched != nil {
		snap.Sched = s.Sched.Stats()
	}
	if s.Regions != nil {
		snap.Regions = s.Regions.RegionStats()
	}
	if wal := s.Engine.Log(); wal != nil {
		snap.WALAppends = wal.Appends
		snap.WALBytes = wal.BytesLogged
	}
	return snap
}

// StartServe mounts a serving front over the system's engine: the
// tenant catalog, the session record API and the admission controller.
// With telemetry attached it also registers the serve.* metrics and —
// under serve.ControlFull — hooks the burn-rate SLO guard on the
// sampler tick; call it after New and before the kernel runs (the
// registry seals at the first sample).
func (s *System) StartServe(cfg serve.Config) (*serve.Front, error) {
	f, err := serve.New(s.Engine, cfg)
	if err != nil {
		return nil, err
	}
	if s.Tel != nil {
		f.Attach(s.Tel)
	}
	s.Serve = f
	return f, nil
}

// OpenSession opens a tenant's session on a store of the serving front
// (StartServe first).
func (s *System) OpenSession(tenant, store string) (*serve.Session, error) {
	if s.Serve == nil {
		return nil, fmt.Errorf("system: no serving front (call StartServe)")
	}
	return s.Serve.OpenSession(tenant, store)
}

// StartMaintenance launches the background flash-maintenance workers
// (one GC worker per region; wear leveling rides on their collections)
// for a background-GC system; it returns nil on stacks without a NoFTL volume or built
// without WithBackgroundGC. These workers are the only processes that
// collect: without them GC runs inline, on the allocating path.
func (s *System) StartMaintenance(cfg sched.MaintConfig) *sched.Maintenance {
	if s.NoFTL == nil || !s.backgroundGC {
		return nil
	}
	return sched.StartMaintenance(s.K, s.NoFTL, cfg)
}

// Config declares a system for the public facade: a stack, a device
// geometry (either Dies/CapacityMB on SLC or an explicit DeviceConfig)
// and an engine buffer size. Zero values pick the canonical defaults:
// the region-managed NoFTL stack on 8 SLC dies of ~64 MB with 256
// buffer frames.
type Config struct {
	// Stack selects the storage architecture. Default StackNoFTLRegions.
	Stack Stack
	// Dies is the device's die count (ignored with Device set). Default 8.
	Dies int
	// CapacityMB approximates the device capacity (ignored with Device
	// set). Default 64.
	CapacityMB int
	// Device overrides the derived geometry with an explicit config.
	Device *flash.Config
	// Frames is the engine's buffer-pool size in pages. Default 256.
	Frames int
	// Regions overrides the region-managed stack's default layout (one
	// sequential log region plus one page-mapped data region; nil:
	// region.DefaultDBLayout). Only meaningful for StackNoFTLRegions. The
	// engine mounts the one page-mapped region for its data and the one
	// sequential region for its WAL; New fails on any other set.
	Regions []region.Spec
}

// Option tunes the optional subsystems New attaches.
type Option func(*options)

// WithScheduler attaches a native command scheduler with the given
// queue discipline.
func WithScheduler(p sched.Policy) Option {
	return func(o *options) { o.sched = &p }
}

// WithPriorityScheduler attaches the priority command scheduler
// (foreground reads > WAL appends > data programs > prefetch > GC, with
// erase suspension).
func WithPriorityScheduler() Option {
	return WithScheduler(sched.Priority)
}

// WithBackgroundGC builds the NoFTL volumes for worker-driven garbage
// collection (the write path keeps only the emergency free-block floor)
// and makes runners start the background maintenance workers.
func WithBackgroundGC() Option {
	return func(o *options) { o.backgroundGC = true }
}

// WithScanResistance segments the buffer-pool clock so scan traffic
// cannot evict the OLTP working set.
func WithScanResistance() Option {
	return func(o *options) { o.scanResistant = true }
}

// WithPrefetch enables sequential read-ahead with the given window (in
// pages; 0: off). Read-ahead also needs prefetcher processes at run
// time.
func WithPrefetch(window int) Option {
	return func(o *options) { o.prefetch = window }
}

// WithTelemetry attaches the cross-layer telemetry pipeline: request
// spans (delivered via workload.TerminalConfig.SpanSink), a metrics
// registry over every layer's counters with a periodic sim-time
// sampler, and a flight recorder retaining the slowest spans and all
// deadline misses.
func WithTelemetry(cfg telemetry.Config) Option {
	return func(o *options) { o.telemetry = &cfg }
}

// WithBlame attaches the latency root-cause engine: the builder records
// every dispatched command into System.CmdLog and forces telemetry span
// retention, so System.Blame() can join the per-die command timeline
// with the retained request spans after a run. Implies a priority
// scheduler when no WithScheduler option is given, in either option
// order.
func WithBlame(cfg blame.Config) Option {
	return func(o *options) { o.blame = &cfg }
}
