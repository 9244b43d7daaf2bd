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
	// SessionTx is an open multi-operation transaction on a session
	// (Session.Tx), admitted once as a unit.
	SessionTx = serve.Txn
)

// ControlFull is the admission-control regime (ServeConfig.Control)
// that paces each tenant to its contracted rate and adds the burn-rate
// SLO guard: tenants burning their deadline-miss budget are
// deprioritized to the degraded class and, if they keep burning, shed.
const ControlFull = serve.ControlFull

// ErrShed marks a request rejected by admission control; the client
// should back off and retry.
var ErrShed = serve.ErrShed
