package noftl

// The public system facade: one call builds the whole stack — native
// flash device, host-side flash management (volumes or regions), an
// optional per-die command scheduler, background-GC configuration and
// the storage engine formatted on top — instead of hand-wiring five
// layers. The same builder powers the experiment drivers, so examples,
// commands and benchmarks construct identical systems.

import (
	"noftl/internal/bench"
	"noftl/internal/sim"
	"noftl/internal/system"
)

type (
	// System is an engine mounted on one storage stack, with every layer
	// reachable for inspection (Engine, Dev, NoFTL, Regions, Sched), a
	// Close/Reopen/Snapshot lifecycle and a device-health snapshot
	// (Health).
	System = system.System
	// SystemConfig declares the stack, device geometry and buffer size.
	SystemConfig = system.Config
	// SystemOption tunes the optional subsystems (scheduler, background
	// GC).
	SystemOption = system.Option
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

// WithPriorityScheduler attaches the priority command scheduler
// (reads > WAL appends > programs > prefetch > GC, erase suspension on).
func WithPriorityScheduler() SystemOption { return system.WithPriorityScheduler() }

// WithBackgroundGC builds the flash volumes for worker-driven garbage
// collection; start the workers with System.StartMaintenance.
func WithBackgroundGC() SystemOption { return system.WithBackgroundGC() }

// Simulated-time units (simulated time counts nanoseconds).
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

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
)

// RunTPS loads wl on the system, then measures transaction throughput
// under the DES kernel: terminal processes, background db-writers, a
// checkpointer, and (on background-GC systems) flash-maintenance
// workers.
func RunTPS(sys *System, wl Workload, cfg TPSConfig) (*RunResult, error) {
	return bench.RunTPS(sys, wl, cfg)
}
