package noftl

// The public system facade: one call builds the whole stack — native
// flash device, host-side flash management (volumes or regions), an
// optional per-die command scheduler, background-GC configuration and
// the storage engine formatted on top — instead of hand-wiring five
// layers. The same builder powers the experiment drivers, so examples,
// commands and benchmarks construct identical systems.

import (
	"noftl/internal/bench"
	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/system"
	"noftl/internal/trace"
	"noftl/internal/workload"
)

type (
	// System is an engine mounted on one storage stack, with every layer
	// reachable for inspection (Engine, Dev, NoFTL, Regions, Sched) and
	// a Close/Snapshot lifecycle.
	System = system.System
	// SystemConfig declares the stack, device geometry and buffer size.
	SystemConfig = system.Config
	// SystemOption tunes the optional subsystems (scheduler, background
	// GC, scan resistance, prefetch, tracing).
	SystemOption = system.Option
	// SystemSnapshot is a cross-layer counter snapshot (System.Snapshot).
	SystemSnapshot = system.Snapshot
	// Stack names a storage architecture (NoFTL variants vs legacy FTL
	// stacks).
	Stack = system.Stack
)

// The storage stacks a System can mount.
const (
	// StackNoFTL is host-managed native flash, one page-mapped volume.
	StackNoFTL = system.StackNoFTL
	// StackFaster is the FASTer hybrid FTL behind a block interface.
	StackFaster = system.StackFaster
	// StackDFTL is the demand-based FTL behind a block interface.
	StackDFTL = system.StackDFTL
	// StackPagemap is the pure page-mapped FTL behind a block interface.
	StackPagemap = system.StackPagemap
	// StackNoFTLDelta is NoFTL with the in-place-append flush path on.
	StackNoFTLDelta = system.StackNoFTLDelta
	// StackNoFTLSingle is one single-policy NoFTL volume hosting WAL and
	// data (the regions ablation's baseline).
	StackNoFTLSingle = system.StackNoFTLSingle
	// StackNoFTLRegions is region-managed placement: WAL on a native
	// append-only log region, data on a page-mapped region.
	StackNoFTLRegions = system.StackNoFTLRegions
)

// NewSystem builds a complete system — device, flash management,
// optional scheduler, formatted engine — from a facade config plus
// options. The zero config mounts the region-managed NoFTL stack on 8
// SLC dies of ~64 MB with 256 buffer frames.
func NewSystem(cfg SystemConfig, opts ...SystemOption) (*System, error) {
	return system.New(cfg, opts...)
}

// WithScheduler attaches a native per-die command scheduler with an
// explicit configuration.
func WithScheduler(cfg SchedulerConfig) SystemOption { return system.WithScheduler(cfg) }

// WithPriorityScheduler attaches the priority command scheduler
// (reads > WAL appends > programs > prefetch > GC, erase suspension on).
func WithPriorityScheduler() SystemOption { return system.WithPriorityScheduler() }

// WithBackgroundGC builds the flash volumes for worker-driven garbage
// collection; start the workers with System.StartMaintenance.
func WithBackgroundGC() SystemOption { return system.WithBackgroundGC() }

// WithScanResistance segments the buffer-pool clock so scans cannot
// evict the OLTP working set.
func WithScanResistance() SystemOption { return system.WithScanResistance() }

// WithPrefetch enables sequential read-ahead with the given window in
// pages.
func WithPrefetch(window int) SystemOption { return system.WithPrefetch(window) }

// WithTrace registers a per-command trace hook on the scheduler
// (attaching a default priority scheduler when none was requested);
// pass a CmdLog's Record method to collect a command log.
func WithTrace(fn func(SchedEvent)) SystemOption { return system.WithTrace(fn) }

// --- command scheduler ---

type (
	// Scheduler is the native per-die command scheduler.
	Scheduler = sched.Scheduler
	// SchedulerConfig tunes a Scheduler (policy, erase suspension,
	// anti-starvation, trace hook).
	SchedulerConfig = sched.Config
	// SchedPolicy selects the queue discipline (FCFS or Priority).
	SchedPolicy = sched.Policy
	// SchedStats is scheduler-level accounting (per-class dispatches and
	// queue waits, retags, promotions).
	SchedStats = sched.Stats
	// SchedEvent describes one dispatched command (class, tag, die,
	// queue wait, service window).
	SchedEvent = sched.Event
	// CmdClass is a dispatched command's priority class.
	CmdClass = sched.Class
	// CmdLog collects scheduler events for offline latency analysis.
	CmdLog = trace.CmdLog
	// MaintenanceConfig tunes the background flash-maintenance workers.
	MaintenanceConfig = sched.MaintConfig
	// Maintenance is the handle over running maintenance workers.
	Maintenance = sched.Maintenance
)

// Queue disciplines.
const (
	// SchedFCFS serves commands in arrival order (the firmware-FTL
	// baseline).
	SchedFCFS = sched.FCFS
	// SchedPriority serves the highest class first with erase
	// suspension.
	SchedPriority = sched.Priority
)

// Command priority classes, highest first.
const (
	CmdRead     = sched.ClassRead
	CmdWAL      = sched.ClassWAL
	CmdProgram  = sched.ClassProgram
	CmdPrefetch = sched.ClassPrefetch
	CmdGC       = sched.ClassGC
)

// --- simulated time units ---

// Simulated-time units (SimTime is nanoseconds).
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// --- closed-loop terminals (multi-client workloads) ---

type (
	// Terminal is one closed-loop client with per-transaction latency
	// accounting and an optional stream tag.
	Terminal = workload.Terminal
	// TerminalConfig configures StartTerminals (count, seed, think
	// time, per-terminal scheduler class and stream tag).
	TerminalConfig = workload.TerminalConfig
	// Terminals is the handle over a running terminal set, with per-tag
	// latency aggregation.
	Terminals = workload.Terminals
)

// StartTerminals launches N closed-loop terminal processes running wl
// against e on kernel k. Terminals can declare per-request scheduler
// classes and stream tags (TerminalConfig.ClassOf/TagOf) that travel
// with every command down to the die queues.
func StartTerminals(k *Kernel, e *Engine, wl Workload, cfg TerminalConfig) *Terminals {
	return workload.StartTerminals(k, e, wl, cfg)
}

// --- canned run drivers ---

type (
	// TPSConfig drives a throughput measurement (terminals, db-writers,
	// warm-up and measure windows, tagging, deadlines).
	TPSConfig = bench.TPSConfig
	// RunResult is what one measured run produced: per-client-group
	// throughput and latency with their totals, the read-miss latency,
	// the end-of-run cross-layer counter snapshot (embedded:
	// Device/FTL/Sched/Buffer/Regions) and maintenance progress. Every
	// experiment row carries one.
	RunResult = bench.RunResult
	// GroupResult is one client group's share of a RunResult (a tenant,
	// the OLTP stream, the analytical stream).
	GroupResult = bench.GroupResult
)

// RunTPS loads wl on the system, then measures transaction throughput
// under the DES kernel: terminal processes, background db-writers, a
// checkpointer, and (on background-GC systems) flash-maintenance
// workers.
func RunTPS(sys *System, wl Workload, cfg TPSConfig) (*RunResult, error) {
	return bench.RunTPS(sys, wl, cfg)
}
