// Package serve is the serving front of the stack: the subsystem that
// turns thousands of concurrent tenants into the tagged, classed,
// deadline-stamped requests the layers below understand — and that
// defends each tenant's SLO at the front door instead of discovering
// the breach in a latency histogram afterwards.
//
// Three pieces:
//
//   - A tenant catalog (TenantSpec): per-tenant scheduler class, stream
//     tag, per-request deadline budget, deadline-miss budget and
//     admission rate. The catalog is the single place a tenant's I/O
//     identity is declared; every request a Session issues carries it.
//   - Session objects exposing a small record/KV API (Get/Put/Delete/
//     Scan/Tx over heap + B+-tree pages). A session stamps every
//     storage.IOCtx it builds with its tenant's descriptor, so the
//     command scheduler, the flight recorder and the blame engine all
//     see exactly which tenant caused which flash command.
//   - An admission controller: deterministic token-bucket rate limiting
//     plus a burn-rate SLO guard reusing the windowed deadline-miss
//     arithmetic of the health engine (telemetry tag commits vs flight-
//     recorder miss counts, sampled on the telemetry tick). A tenant
//     burning its miss budget is first deprioritized (its requests
//     dispatch at the degraded class, below every compliant tenant's)
//     and, if the burn persists, shed (empty-bucket requests rejected
//     with ErrShed after a deterministic client backoff). Both
//     transitions carry hysteresis so a single noisy window cannot
//     flap a tenant's service level.
//
// Everything runs under the simulation clock: admission waits are
// sim.Waiter sleeps, bucket refill is integer sim-time arithmetic, and
// the guard's windows are the telemetry sampler's — the whole front is
// deterministic for a fixed seed.
package serve

import (
	"errors"
	"fmt"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/telemetry"
)

// Serving-front errors.
var (
	// ErrShed is returned by session operations the admission controller
	// rejected: the tenant is in the shed state and its token bucket is
	// empty. The client's waiter has already slept the shed backoff when
	// the error surfaces, so a retry loop cannot livelock the simulation.
	ErrShed = errors.New("serve: request shed by admission control")
	// ErrUnknownTenant is returned when opening a session for a tenant
	// the catalog does not declare.
	ErrUnknownTenant = errors.New("serve: unknown tenant")
	// ErrUnknownStore is returned when opening a session on a store that
	// was never created.
	ErrUnknownStore = errors.New("serve: unknown store")
)

// TenantSpec declares one tenant of the serving front: its I/O identity
// (class, tag, deadline) and its contract (rate, miss budget).
type TenantSpec struct {
	// Name identifies the tenant in sessions, tables and metrics.
	Name string
	// Tag is the tenant's stream tag, stamped on every request a session
	// issues; it must be nonzero and unique. It reaches the command log,
	// the flight recorder and blame, so shed-vs-served root-causing per
	// tenant is exact.
	Tag uint32
	// Class is the scheduler class the tenant's admitted requests
	// dispatch at (ioreq.ClassDefault: the volume's routing decides).
	Class ioreq.Class
	// Deadline stamps each request with a completion deadline this far
	// ahead of its admission (0: none). Deadline misses feed the burn
	// guard via telemetry.
	Deadline sim.Time
	// MissBudget is the allowed deadline-miss fraction (e.g. 0.05: 5% of
	// commits may run past their deadline). 0 disables the burn guard
	// for this tenant.
	MissBudget float64
	// Rate is the sustained admission rate in requests per second
	// (0: unlimited — no token bucket).
	Rate float64
	// Burst is the token-bucket depth (default 8 when Rate > 0).
	Burst int
}

// Control selects how much of the admission controller is armed.
type Control uint8

// Admission-control regimes, in the ablation's order.
const (
	// ControlNone admits everything at the tenant's declared class: the
	// baseline where every tenant's traffic competes unmediated.
	ControlNone Control = iota
	// ControlRateLimit arms the per-tenant token buckets: a tenant past
	// its rate is paced (the session sleeps until the next token), never
	// rejected and never reclassified.
	ControlRateLimit
	// ControlFull arms rate limiting AND the burn-rate SLO guard: a
	// tenant burning its deadline-miss budget is deprioritized to the
	// degraded class, then shed (empty-bucket requests rejected with
	// ErrShed) if the burn persists, with hysteresis both ways.
	ControlFull
)

// String names the control regime.
func (c Control) String() string {
	switch c {
	case ControlNone:
		return "no-control"
	case ControlRateLimit:
		return "rate-limit"
	case ControlFull:
		return "rate-limit+shed"
	default:
		return "Control(?)"
	}
}

// Config configures a serving front.
type Config struct {
	// Tenants is the tenant catalog. Names and tags must be unique, tags
	// nonzero.
	Tenants []TenantSpec
	// Control selects the admission regime. Default ControlNone.
	Control Control
}

// Store is one record store served by the front: a heap table plus its
// primary-key B+-tree.
type Store struct {
	// Name is the store's catalog name.
	Name string
	// Table and Index are the engine object ids backing the store.
	Table uint32
	Index uint32
}

// Front is a serving front over one storage engine: the tenant catalog,
// the store catalog, the admission controller and the session registry.
type Front struct {
	e   *storage.Engine
	cfg Config

	// tenants in catalog order (state evaluation iterates this slice so
	// the controller is deterministic); byName indexes it.
	tenants []*tenant
	byName  map[string]*tenant

	stores map[string]*Store

	tel *telemetry.Telemetry

	// Front-wide counters (per-tenant ones live on the tenant).
	sessions      int64 // currently open sessions
	admitted      int64
	deprioritized int64
	shed          int64
}

// New builds a serving front over the engine from a validated config.
func New(e *storage.Engine, cfg Config) (*Front, error) {
	f := &Front{
		e:      e,
		cfg:    cfg,
		byName: make(map[string]*tenant, len(cfg.Tenants)),
		stores: make(map[string]*Store),
	}
	tags := make(map[uint32]string, len(cfg.Tenants))
	for _, spec := range cfg.Tenants {
		if spec.Name == "" {
			return nil, fmt.Errorf("serve: tenant with empty name")
		}
		if spec.Tag == 0 {
			return nil, fmt.Errorf("serve: tenant %q needs a nonzero stream tag", spec.Name)
		}
		if prev, ok := tags[spec.Tag]; ok {
			return nil, fmt.Errorf("serve: tenants %q and %q share tag %d", prev, spec.Name, spec.Tag)
		}
		if _, ok := f.byName[spec.Name]; ok {
			return nil, fmt.Errorf("serve: duplicate tenant %q", spec.Name)
		}
		if spec.Rate > 0 && spec.Burst <= 0 {
			spec.Burst = 8
		}
		t := &tenant{spec: spec, bkt: newBucket(spec.Rate, spec.Burst),
			shedErr: fmt.Errorf("%w (tenant %s)", ErrShed, spec.Name)}
		tags[spec.Tag] = spec.Name
		f.tenants = append(f.tenants, t)
		f.byName[spec.Name] = t
	}
	return f, nil
}

// CreateStore creates a record store: a heap table named name and its
// primary-key B+-tree (name + ".pk").
func (f *Front) CreateStore(ctx *storage.IOCtx, name string) (*Store, error) {
	if _, ok := f.stores[name]; ok {
		return nil, fmt.Errorf("serve: store %q exists", name)
	}
	tbl, err := f.e.CreateTable(ctx, name)
	if err != nil {
		return nil, err
	}
	idx, err := f.e.CreateIndex(ctx, name+".pk")
	if err != nil {
		return nil, err
	}
	st := &Store{Name: name, Table: tbl, Index: idx}
	f.stores[name] = st
	return st, nil
}

// Store returns a created store by name.
func (f *Front) Store(name string) (*Store, bool) {
	st, ok := f.stores[name]
	return st, ok
}

// Preload bulk-inserts keys 0..n-1 with copies of val into a store
// through the engine's batched loader (Engine.LoadRows).
func (f *Front) Preload(ctx *storage.IOCtx, store string, n int64, val []byte) error {
	st, ok := f.stores[store]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownStore, store)
	}
	return f.e.LoadRows(ctx, st.Table, st.Index, n, func(i int64) (int64, []byte) { return i, val })
}

// OpenSession opens a tenant's session on a store. Every request the
// session issues carries the tenant's class, tag and deadline; the
// admission controller mediates each one.
func (f *Front) OpenSession(tenant, store string) (*Session, error) {
	t, ok := f.byName[tenant]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTenant, tenant)
	}
	st, ok := f.stores[store]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownStore, store)
	}
	f.sessions++
	return &Session{f: f, t: t, st: st}, nil
}

// Stats is the front's admission accounting at one instant.
type Stats struct {
	// ActiveSessions is the number of open sessions.
	ActiveSessions int64
	// Admitted, Deprioritized and Shed count admission decisions:
	// requests admitted at the tenant's class, requests admitted at the
	// degraded class, and requests rejected. Deprioritized requests are
	// also counted in Admitted (they did run).
	Admitted      int64
	Deprioritized int64
	Shed          int64
}

// Stats snapshots the front-wide admission counters.
func (f *Front) Stats() Stats {
	return Stats{
		ActiveSessions: f.sessions,
		Admitted:       f.admitted,
		Deprioritized:  f.deprioritized,
		Shed:           f.shed,
	}
}

// TenantStats is one tenant's admission accounting.
type TenantStats struct {
	// Name and Tag identify the tenant.
	Name string
	Tag  uint32
	// State is the tenant's current service level.
	State TenantState
	// Admitted, Deprioritized, Shed count this tenant's admission
	// decisions (Deprioritized ⊆ Admitted).
	Admitted      int64
	Deprioritized int64
	Shed          int64
	// Escalations and Relaxations count service-level transitions.
	Escalations int64
	Relaxations int64
}

// TenantStats snapshots one tenant's admission counters.
func (f *Front) TenantStats(name string) (TenantStats, bool) {
	t, ok := f.byName[name]
	if !ok {
		return TenantStats{}, false
	}
	return TenantStats{
		Name:          t.spec.Name,
		Tag:           t.spec.Tag,
		State:         t.state,
		Admitted:      t.admitted,
		Deprioritized: t.deprioritized,
		Shed:          t.shed,
		Escalations:   t.escalations,
		Relaxations:   t.relaxations,
	}, true
}

// Attach hooks the front into the telemetry pipeline: serve.* metrics
// on the registry (admission counters and the active-session gauge,
// front-wide and per tenant) and — under ControlFull — the burn-rate
// guard on the sampler tick. Call it after building the system and
// before the kernel runs (the registry seals at the first sample).
func (f *Front) Attach(tel *telemetry.Telemetry) {
	f.tel = tel
	reg := tel.Reg
	reg.Gauge("serve.active_sessions", func() float64 { return float64(f.sessions) })
	reg.Counter("serve.admitted", func() int64 { return f.admitted })
	reg.Counter("serve.deprioritized", func() int64 { return f.deprioritized })
	reg.Counter("serve.shed", func() int64 { return f.shed })
	for _, t := range f.tenants {
		t := t
		name := metricName(t.spec.Name)
		reg.Counter("serve.tenant."+name+"_admitted", func() int64 { return t.admitted })
		reg.Counter("serve.tenant."+name+"_deprioritized", func() int64 { return t.deprioritized })
		reg.Counter("serve.tenant."+name+"_shed", func() int64 { return t.shed })
		reg.Gauge("serve.tenant."+name+"_state", func() float64 { return float64(t.state) })
	}
	if f.cfg.Control == ControlFull {
		tel.OnSample(f.observe)
	}
}

// metricName lowercases a tenant name into the registry's sanctioned
// [a-z0-9_]+ alphabet so catalog names cannot break metric naming.
func metricName(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+('a'-'A'))
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 || !(out[0] >= 'a' && out[0] <= 'z') {
		out = append([]byte{'t'}, out...)
	}
	return string(out)
}
