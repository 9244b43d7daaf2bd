// Package noftl is the public API of the NoFTL reproduction: databases
// on native flash storage (Hardock, Petrov, Gottstein, Buchmann — EDBT
// 2015).
//
// The package is the library: it re-exports the pieces of the internal
// implementation that code outside this module's internal/ tree uses —
// every exported name here is selected by an example, or appears in
// the signature of one that is (the facade analyzer of
// internal/analysis checks it):
//
//   - the whole-stack builder (NewSystem, SystemConfig, the Stack
//     names, WithPriorityScheduler, WithBackgroundGC),
//   - the flash device emulator and its NAND model (NewDevice,
//     DeviceConfig, EmulatorConfig),
//   - host-integrated flash management — the paper's contribution
//     (NewVolume, VolumeConfig, RebuildVolume) and its regions
//     (RegionSpec, PageMapped, SeqMapped),
//   - the TPC-B and TPC-C workload generators (NewTPCB, NewTPCC),
//   - the serving front's record sessions (ServeConfig, TenantSpec),
//   - one measured run of a workload on a system (RunTPS).
//
// The paper's experiments live in internal/bench and have one driver,
// cmd/noftlbench. See examples/ for runnable walk-throughs and
// DESIGN.md for the architecture and the per-experiment index.
package noftl

import (
	"noftl/internal/flash"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/region"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/workload"
)

// --- cross-layer I/O request descriptors ---

// Req is the cross-layer I/O request descriptor — the one struct that
// declares it: the waiter that experiences a request's latency plus the
// intent (scheduler class, stream tag, deadline, span) that travels with
// it from the workload layer down to the per-die command queues. A *Req
// is itself a Waiter: the descriptor is what goes down the plain-waiter
// device interface. Volume and log calls take it by value.
type Req = ioreq.Req

// Request classes a tenant can declare (TenantSpec.Class). The zero
// class declares nothing — the command's op type decides.
const (
	ReqRead    = ioreq.ClassRead
	ReqProgram = ioreq.ClassProgram
)

// NewReq wraps a bare waiter into an intent-free request descriptor.
func NewReq(w Waiter) Req { return ioreq.Plain(w) }

// --- NAND + flash device emulator ---

type (
	// CellType selects SLC/MLC/TLC timing and endurance.
	CellType = nand.CellType
	// DeviceConfig configures the emulated device.
	DeviceConfig = flash.Config
	// Device is the native-flash device emulator.
	Device = flash.Device
)

// SLC is the cell technology of the paper's devices.
const SLC = nand.SLC

// NewDevice creates an emulated native-flash device.
func NewDevice(cfg DeviceConfig) *Device { return flash.New(cfg) }

// EmulatorConfig builds a device geometry with the given die count and
// approximate capacity, mirroring the paper's reconfigurable emulator.
func EmulatorConfig(dies, capacityMB int, cell CellType) DeviceConfig {
	return flash.EmulatorConfig(dies, capacityMB, cell)
}

// --- simulation ---

type (
	// Waiter is how callers experience simulated latency: WaitUntil
	// blocks until an operation's completion time.
	Waiter = sim.Waiter
	// ClockWaiter is a serial virtual clock (single synchronous client).
	ClockWaiter = sim.ClockWaiter
)

// --- NoFTL: the paper's contribution ---

type (
	// Volume is DBMS-managed native flash: host-side page mapping, GC
	// with dead-page knowledge, regions, wear leveling, BBM.
	Volume = noftl.Volume
	// VolumeConfig tunes a Volume.
	VolumeConfig = noftl.Config
)

// Placement hints (Volume.WriteHint): separate write frontiers for
// frequently and rarely updated pages.
const (
	HintHot  = noftl.HintHot
	HintCold = noftl.HintCold
)

// NewVolume creates a NoFTL volume over a native flash device.
func NewVolume(dev *Device, cfg VolumeConfig) (*Volume, error) { return noftl.New(dev, cfg) }

// RebuildVolume reconstructs a volume's mapping from flash OOB metadata
// after a host restart. The scan's page reads are charged to rq.
func RebuildVolume(dev *Device, cfg VolumeConfig, rq Req) (*Volume, error) {
	return noftl.Rebuild(dev, cfg, rq)
}

// --- configurable flash regions ---

// RegionSpec declares one region; a layout (SystemConfig.Regions) is a
// list of them.
type RegionSpec = region.Spec

// Region mapping granularities.
const (
	PageMapped = region.PageMapped
	SeqMapped  = region.SeqMapped
)

// --- storage engine ---

// Writer association strategies (§3.2, Figure 4).
const (
	AssocGlobal  = storage.AssocGlobal
	AssocDieWise = storage.AssocDieWise
)

// --- workloads ---

type (
	// Workload is a transactional benchmark.
	Workload = workload.Workload
	// TPCBConfig scales TPC-B.
	TPCBConfig = workload.TPCBConfig
	// TPCCConfig scales TPC-C.
	TPCCConfig = workload.TPCCConfig
)

// NewTPCB creates the TPC-B workload.
func NewTPCB(cfg TPCBConfig) Workload { return workload.NewTPCB(cfg) }

// NewTPCC creates the TPC-C workload.
func NewTPCC(cfg TPCCConfig) Workload { return workload.NewTPCC(cfg) }
