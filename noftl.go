// Package noftl is the public API of the NoFTL reproduction: databases
// on native flash storage (Hardock, Petrov, Gottstein, Buchmann — EDBT
// 2015).
//
// The package re-exports the pieces of the internal implementation
// that code outside this module's internal/ tree uses — every exported
// name here is selected by an example, a command or the benchmarks in
// bench_test.go, or appears in the signature of one that is (the
// facade analyzer of internal/analysis checks it):
//
//   - the whole-stack builder (NewSystem, SystemConfig, the Stack
//     names, WithPriorityScheduler, WithBackgroundGC, WithHealth),
//   - the flash device emulator and its NAND model (NewDevice,
//     DeviceConfig, EmulatorConfig),
//   - host-integrated flash management — the paper's contribution
//     (NewVolume, VolumeConfig, RebuildVolume),
//   - the TPC-B and TPC-C workload generators (NewTPCB, NewTPCC) and
//     the TPC-H-like scan scale (TPCHConfig),
//   - the experiment drivers that regenerate every table and figure of
//     the paper (Figure3, Figure4, Headline, Latency, Validate) plus
//     the in-place-appends ablation (DeltaAblation).
//
// See examples/ for runnable walk-throughs and DESIGN.md for the
// architecture and the per-experiment index.
package noftl

import (
	"noftl/internal/bench"
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
	// SimTime is simulated time in nanoseconds.
	SimTime = sim.Time
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

type (
	// RegionLayout declares the regions and the placement catalog.
	RegionLayout = region.Layout
	// RegionSpec declares one region.
	RegionSpec = region.Spec
	// RegionClass identifies an object class for placement.
	RegionClass = region.Class
)

// Region mapping granularities and object classes.
const (
	PageMapped = region.PageMapped
	SeqMapped  = region.SeqMapped

	ClassWAL   = region.ClassWAL
	ClassHeap  = region.ClassHeap
	ClassIndex = region.ClassIndex
	ClassDelta = region.ClassDelta
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
	// TPCHConfig scales the TPC-H-like workload.
	TPCHConfig = workload.TPCHConfig
)

// NewTPCB creates the TPC-B workload.
func NewTPCB(cfg TPCBConfig) Workload { return workload.NewTPCB(cfg) }

// NewTPCC creates the TPC-C workload.
func NewTPCC(cfg TPCCConfig) Workload { return workload.NewTPCC(cfg) }

// --- experiments (the paper's tables and figures) ---

type (
	// ExperimentParams is the parameter block every kernel-driven
	// experiment config embeds: geometry, client and db-writer counts,
	// pool size, warm-up and measure windows, seed, and the
	// observability attachments (telemetry, blame, health, command
	// trace). A zero field takes the experiment's own default.
	ExperimentParams = bench.Params
	// ObservedRun is what a run's observability attachments produced
	// (telemetry pipeline, command log, blame report, health snapshot);
	// experiment rows embed one.
	ObservedRun = bench.Observed
	// Fig3Config / Fig3Result: Figure 3, GC overhead FASTer vs NoFTL.
	Fig3Config = bench.Fig3Config
	// Fig3Result holds the Figure-3 table.
	Fig3Result = bench.Fig3Result
	// Fig4Config parameterizes Figures 4a/4b, db-writer association:
	// global vs die-wise writers over a sweep of die counts.
	Fig4Config = bench.Fig4Config
	// ExperimentRows is a multi-run experiment's outcome (Figure4,
	// Headline, the delta, regions, scheduling, HTAP and serving
	// ablations): one row per variant — a stack, regime, policy or die
	// count on a freshly built system — in declaration order, looked up
	// by name (Row), compared by Ratio, rendered by Table and reported by
	// AddTo.
	ExperimentRows = bench.Rows
	// HeadlineConfig parameterizes the end-to-end stack comparison.
	HeadlineConfig = bench.HeadlineConfig
	// LatencyConfig / LatencyResult: the random-write latency study.
	LatencyConfig = bench.LatencyConfig
	// LatencyResult compares latency distributions.
	LatencyResult = bench.LatencyResult
	// ValidateConfig / ValidateResult: emulator validation (Demo 1).
	ValidateConfig = bench.ValidateConfig
	// ValidateResult is the validation table.
	ValidateResult = bench.ValidateResult
	// DeltaConfig parameterizes the in-place-appends ablation (A5),
	// full-page NoFTL vs delta-append NoFTL vs the FTL block device.
	DeltaConfig = bench.DeltaConfig
	// RegionsConfig parameterizes the configurable-regions ablation
	// (A6), single-policy NoFTL vs region-managed placement with the
	// WAL on a native append-only log region.
	RegionsConfig = bench.RegionsConfig
	// SchedConfig parameterizes the command-scheduling ablation (A7) —
	// inline GC vs background GC vs priority scheduling.
	SchedConfig = bench.SchedConfig
	// HTAPConfig parameterizes the HTAP ablation (A8) — OLTP terminals
	// vs analytical scans under buffer-pool and read-ahead policies.
	HTAPConfig = bench.HTAPConfig
	// QoSConfig / QoSResult: the per-request QoS demo — two terminal
	// groups on one stack, one declared low-priority, with per-tag
	// commit-latency attribution.
	QoSConfig = bench.QoSConfig
	// QoSResult is the QoS demo outcome.
	QoSResult = bench.QoSResult
	// AblationResult is one design-choice sweep's table (A1-A4).
	AblationResult = bench.AblationResult
	// JSONReport collects machine-readable experiment results
	// (noftlbench -json).
	JSONReport = bench.JSONReport
)

// Metrics ExperimentRows.Ratio compares: committed transactions per
// second, p99 commit and buffer read-miss latency, flash bytes
// programmed per transaction, erases per thousand transactions, the
// HTAP ablation's scan rows per second and the serving ablation's
// paying-tenant p99 commit latency.
var (
	TPS             = bench.TPS
	CommitP99       = bench.CommitP99
	ReadP99         = bench.ReadP99
	BytesPerTx      = (*RunResult).BytesPerTx
	ErasesPerKTx    = (*RunResult).ErasesPerKTx
	ScanRowsPerS    = bench.ScanRowsPerS
	PayingCommitP99 = bench.PayingCommitP99
)

// TagLowPriority is the stream tag of the QoS demo's declared-low-priority
// tenant (QoSResult rows and blame tables key on it).
const TagLowPriority = bench.TagLowPriority

// Figure3 regenerates the paper's Figure-3 table.
func Figure3(cfg Fig3Config) (*Fig3Result, error) { return bench.Figure3(cfg) }

// Figure4 regenerates Figure 4a (tpcc) or 4b (tpcb): rows
// "<dies>/global" and "<dies>/die-wise" per die count, and
// DieWiseSpeedup, the figure's best die-wise over global TPS ratio.
func Figure4(cfg Fig4Config) (*ExperimentRows, error) { return bench.Figure4(cfg) }

// Headline regenerates the end-to-end stack comparison.
func Headline(cfg HeadlineConfig) (*ExperimentRows, error) { return bench.Headline(cfg) }

// Latency regenerates the write-latency study.
func Latency(cfg LatencyConfig) (*LatencyResult, error) { return bench.Latency(cfg) }

// Validate regenerates the emulator validation.
func Validate(cfg ValidateConfig) (*ValidateResult, error) { return bench.Validate(cfg) }

// DeltaAblation runs the in-place-appends ablation: what page-
// differential flushes (Volume.WriteDelta) buy over full-page writes.
func DeltaAblation(cfg DeltaConfig) (*ExperimentRows, error) { return bench.DeltaAblation(cfg) }

// RegionsAblation runs the configurable-regions ablation: what
// per-region management policies and object placement buy over a
// single-policy volume when the WAL also lives on flash.
func RegionsAblation(cfg RegionsConfig) (*ExperimentRows, error) {
	return bench.RegionsAblation(cfg)
}

// SchedAblation runs the command-scheduling ablation (A7): inline GC vs
// background GC vs priority scheduling on the region-managed stack.
func SchedAblation(cfg SchedConfig) (*ExperimentRows, error) { return bench.SchedAblation(cfg) }

// HTAPAblation runs the HTAP ablation (A8): OLTP terminals vs
// analytical scans under the naive, scan-resistant and
// scan-resistant+prefetch pool policies.
func HTAPAblation(cfg HTAPConfig) (*ExperimentRows, error) { return bench.HTAPAblation(cfg) }

// QoS runs the per-request QoS demo: two TPC-B terminal groups on one
// priority-scheduled stack, one group declared low-priority through the
// request descriptor, reporting per-tag commit latency.
func QoS(cfg QoSConfig) (*QoSResult, error) { return bench.QoS(cfg) }

// AblationGCPolicy sweeps the GC victim-selection policy (A1).
func AblationGCPolicy(seed int64) (*AblationResult, error) { return bench.AblationGCPolicy(seed) }

// AblationDFTLCMT sweeps DFTL's cached-mapping-table size (A2).
func AblationDFTLCMT(seed int64) (*AblationResult, error) { return bench.AblationDFTLCMT(seed) }

// AblationFasterLog sweeps FASTer's log-block share (A3).
func AblationFasterLog(seed int64) (*AblationResult, error) { return bench.AblationFasterLog(seed) }

// AblationOverProvision sweeps NoFTL's over-provisioning share (A4).
func AblationOverProvision(seed int64) (*AblationResult, error) {
	return bench.AblationOverProvision(seed)
}
