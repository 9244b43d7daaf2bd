package noftl

// The serving front: multi-tenant record sessions over the engine with
// SLO-driven admission control. A Session wraps the storage engine's
// heap + index pages behind a record/KV API (Get/Put/Delete/Scan/Tx)
// and stamps every I/O it issues with its tenant's request descriptor —
// scheduler class, stream tag, completion deadline — so the per-die
// command queues see who each command belongs to. The front's admission
// controller paces tenants to their contracted rates with token buckets
// and watches each tenant's deadline-miss burn rate against its SLO
// budget, deprioritizing and finally shedding budget breachers so a
// compliant tenant's tail latency stays near its uncontended baseline.

import (
	"noftl/internal/bench"
	"noftl/internal/serve"
)

type (
	// TenantSpec declares one tenant of the serving front: its stream
	// tag, scheduler class, per-request completion deadline,
	// deadline-miss budget (the SLO) and contracted admission rate.
	TenantSpec = serve.TenantSpec
	// ServeConfig configures a serving front: the tenant catalog and
	// the admission-control regime.
	ServeConfig = serve.Config
	// ServeFront is the serving front: the tenant catalog, the stores,
	// the admission controller and the session factory. Build one with
	// System.StartServe.
	ServeFront = serve.Front
	// ServeStore is one named record store (a heap table plus its
	// primary-key index) served by the front.
	ServeStore = serve.Store
	// Session is one tenant's handle on a store: a record/KV API whose
	// every request passes admission and carries the tenant's request
	// descriptor.
	Session = serve.Session
	// SessionTx is an open multi-operation transaction on a session
	// (Session.Tx), admitted once as a unit.
	SessionTx = serve.Txn
	// AdmissionControl selects the front's admission regime.
	AdmissionControl = serve.Control
	// TenantState is the admission controller's per-tenant health
	// ladder: Healthy, Deprioritized, or Shed.
	TenantState = serve.TenantState
	// ServeStats is the front-wide admission accounting (sessions,
	// admitted, deprioritized, shed).
	ServeStats = serve.Stats
	// TenantStats is one tenant's admission accounting: decision
	// counters, escalation/relaxation transitions and the current state.
	TenantStats = serve.TenantStats
)

// Admission-control regimes.
const (
	// ControlNone admits every request at its declared class.
	ControlNone = serve.ControlNone
	// ControlRateLimit paces each tenant to its contracted rate with a
	// token bucket, but never reclassifies or sheds.
	ControlRateLimit = serve.ControlRateLimit
	// ControlFull adds the burn-rate SLO guard: tenants burning their
	// deadline-miss budget are deprioritized to the degraded class and,
	// if they keep burning, shed.
	ControlFull = serve.ControlFull
)

// Tenant health states of the admission ladder.
const (
	// TenantHealthy: admitted at the declared class.
	TenantHealthy = serve.Healthy
	// TenantDeprioritized: admitted, but at the degraded class.
	TenantDeprioritized = serve.Deprioritized
	// TenantShed: over-rate requests are rejected with ErrShed.
	TenantShed = serve.Shed
)

// Serving-front errors.
var (
	// ErrShed marks a request rejected by admission control; the client
	// should back off and retry.
	ErrShed = serve.ErrShed
	// ErrUnknownTenant marks a session request for a tenant not in the
	// catalog.
	ErrUnknownTenant = serve.ErrUnknownTenant
	// ErrUnknownStore marks a session request for a store that was never
	// created.
	ErrUnknownStore = serve.ErrUnknownStore
)

// --- the serving-front admission ablation ---

type (
	// ServeAblationConfig parameterizes the serving-front ablation:
	// thousands of closed-loop sessions from a compliant "paying" tenant
	// and an aggressive "batch" tenant, run under no-control, rate-limit
	// and rate-limit+shed admission regimes plus an uncontended
	// reference.
	ServeAblationConfig = bench.ServeConfig
	// ServeAblationResult is the ablation outcome: the uncontended
	// reference plus one row per admission regime.
	ServeAblationResult = bench.ServeResult
	// ServeAblationRow is one admission regime's measurement.
	ServeAblationRow = bench.ServeRow
	// ServeTenantRow is one tenant's measurement under one regime:
	// throughput, commit tail, deadline misses and the admission
	// controller's decision counters.
	ServeTenantRow = bench.ServeTenantRow
)

// Stream tags of the serving ablation's tenants (blame tables and
// Prometheus labels key on these).
const (
	// TagPaying marks the ablation's compliant, latency-sensitive tenant.
	TagPaying = bench.TagPaying
	// TagBatch marks the ablation's aggressive closed-loop tenant.
	TagBatch = bench.TagBatch
)

// ServeAblation runs the serving-front admission ablation: the same
// two-tenant load under no-control, rate-limit and rate-limit+shed
// regimes, asking whether admission control keeps the compliant
// tenant's commit tail near its uncontended baseline while the
// budget-breaching tenant is visibly deprioritized and shed.
func ServeAblation(cfg ServeAblationConfig) (*ServeAblationResult, error) {
	return bench.Serve(cfg)
}

// ServeTagNames names the serving ablation's stream tags (the two
// tenants plus the background db-writer and checkpointer streams) for
// blame tables and flame stacks.
func ServeTagNames() map[uint32]string { return bench.ServeTagNames() }
