package bench

import (
	"errors"
	"fmt"
	"math/rand"

	"noftl/internal/serve"
	"noftl/internal/sim"
	"noftl/internal/stats"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/telemetry"
	"noftl/internal/workload"
)

// Serving-front ablation: thousands of closed-loop client sessions from
// two tenants — a compliant "paying" tenant (think time, no rate cap, a
// latency SLO) and an aggressive "batch" tenant (pure closed loop, an
// overcommitted rate contract, a tight deadline it cannot hold) — share
// one region-managed, priority-scheduled stack through the serving
// front's record API. The same load runs under three admission regimes:
//
//	no-control       every request admitted at its declared class
//	rate-limit       per-tenant token buckets pace the batch tenant
//	rate-limit+shed  buckets plus the burn-rate SLO guard: the batch
//	                 tenant burns its deadline-miss budget, is
//	                 deprioritized to the degraded class and then shed
//
// plus an uncontended reference (the paying tenant alone). The
// experiment's question is the serving front's reason to exist: with
// admission control on, does the compliant tenant's commit tail stay
// near its uncontended baseline while the breaching tenant is visibly
// deprioritized and shed?

// Stream tags of the serving ablation's tenants.
const (
	TagPaying uint32 = 0x5E0001
	TagBatch  uint32 = 0x5E0002
)

// Serving-ablation tenant names.
const (
	payingTenant = "paying"
	batchTenant  = "batch"
)

// ServeConfig parameterizes the serving-front ablation. Params.Workers
// is the total session count, split 1:3 between the paying and batch
// tenants; the telemetry pipeline is always attached (the burn guard
// needs it), and Params.Telemetry overrides its config and asks for the
// rows' observability like any experiment's.
type ServeConfig struct {
	Params
	// Rows is the per-store record count. Default 16384.
	Rows int64
	// Settle runs between warm-up and measure with spans (and so the
	// burn guard) live but before counters reset, so the guard's
	// escalation transient stays out of the measured window. Default 1s.
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	Settle sim.Time
}

// The ablation's fixed load shape and tenant contracts.
const (
	serveValBytes = 96 // record size
	// payingDeadline / batchDeadline stamp each tenant's transactions;
	// payingBudget / batchBudget are the allowed deadline-miss fractions
	// (the batch tenant's contract is strict, the paying tenant's is
	// generous so the guard never punishes the victim).
	payingDeadline = 6 * sim.Millisecond
	batchDeadline  = 3 * sim.Millisecond
	payingBudget   = 0.25
	batchBudget    = 0.02
	// batchRate is the batch tenant's contracted admission rate in
	// requests per second, shared by all its sessions.
	batchRate = 1200.0
	// payingThink is the paying sessions' think time.
	payingThink = 2 * sim.Millisecond
)

func (c ServeConfig) withDefaults() ServeConfig {
	c.Params = c.Params.withDefaults("serve")
	c.Rows = orDefault(c.Rows, 16384)
	c.Settle = orDefault(c.Settle, 1*sim.Second)
	return c
}

func (c ServeConfig) payingN() int { return c.Workers / 4 }

// PayingCommitP99 is the paying tenant's p99 commit latency (0 where it
// did not run). Its ratio over the uncontended row is the ablation's
// headline number (1.0: full protection).
func PayingCommitP99(r *RunResult) float64 {
	g := r.Group(payingTenant)
	if g == nil {
		return 0
	}
	return float64(g.Commit.Percentile(99))
}

// serveTable renders the per-regime, per-tenant comparison: each
// tenant's measured window (retries are the shed-and-retried plus
// lock-timeout attempts) beside the controller's whole-run accounting
// for it.
func serveTable(r *Rows) string {
	t := stats.NewTable("mode", "tenant", "sessions", "TPS", "p50", "p99",
		"misses", "admitted", "depri", "shed", "state")
	for _, row := range r.Rows {
		for _, g := range row.Result.Groups {
			adm, _ := row.Front.TenantStats(g.Name)
			t.Row(row.Name, g.Name, g.Clients,
				fmt.Sprintf("%.0f", g.TPS),
				g.Commit.Percentile(50).String(),
				g.Commit.Percentile(99).String(),
				g.DeadlineMisses,
				adm.Admitted, adm.Deprioritized,
				adm.Shed, adm.State.String())
		}
	}
	return t.String()
}

// kvWorkload binds one terminal to its session: every transaction runs
// through the serving front's record API (and so through admission).
// The mix is a read-heavy KV profile: 45% read-modify-write, 30% point
// get, 20% put, 5% short scan.
type kvWorkload struct {
	s    *serve.Session
	rows int64
	val  []byte
}

func (w *kvWorkload) Name() string                                     { return "kv" }
func (w *kvWorkload) Load(ctx *storage.IOCtx, e *storage.Engine) error { return nil }

func (w *kvWorkload) RunOne(ctx *storage.IOCtx, e *storage.Engine, rng *rand.Rand) error {
	key := rng.Int63n(w.rows)
	switch p := rng.Intn(100); {
	case p < 45:
		return w.s.Tx(ctx, func(tx *serve.Txn) error {
			v, err := tx.GetForUpdate(key)
			if err != nil {
				return err
			}
			copy(v, w.val)
			return tx.Put(key, v)
		})
	case p < 75:
		_, err := w.s.Get(ctx, key)
		return err
	case p < 95:
		return w.s.Put(ctx, key, w.val)
	default:
		hi := key + 7
		if hi >= w.rows {
			hi = w.rows - 1
		}
		return w.s.Scan(ctx, key, hi, func(int64, []byte) bool { return true })
	}
}

// serveExtras fills the admission controller's decision counters for
// the row's regime and the per-tenant split in the tenant maps.
func serveExtras(row *Row, jr *JSONResult) {
	front := row.Front.Stats()
	jr.Admitted, jr.Deprioritized, jr.Shed = front.Admitted, front.Deprioritized, front.Shed
	jr.TenantTPS, jr.TenantP99us = map[string]float64{}, map[string]float64{}
	for _, g := range row.Result.Groups {
		jr.TenantTPS[g.Name] = g.TPS
		jr.TenantP99us[g.Name] = us(g.Commit.Percentile(99))
	}
}

// Serve runs the serving-front ablation: the uncontended reference,
// then the full two-tenant load under each admission regime, each on a
// freshly built system with the same seed.
func Serve(cfg ServeConfig) (*Rows, error) {
	cfg = cfg.withDefaults()
	return cfg.runVariants("serve", "kv", cfg.variants())
}

// variants lists the uncontended reference (the paying tenant alone, no
// control) and the three admission regimes, named after their controls.
// Every variant carries telemetry, which the burn guard needs; a
// Params.Telemetry config replaces its default.
func (cfg ServeConfig) variants() []variant {
	v := func(name string, control serve.Control, withBatch bool) variant {
		return variant{name, system.StackNoFTLRegions,
			[]system.Option{system.WithPriorityScheduler(), system.WithBackgroundGC(),
				system.WithTelemetry(telemetry.Config{})},
			func(sys *system.System) (*RunResult, error) { return cfg.runRegime(sys, control, withBatch, name) }}
	}
	vs := []variant{v("uncontended", serve.ControlNone, false)}
	for _, control := range []serve.Control{serve.ControlNone, serve.ControlRateLimit, serve.ControlFull} {
		vs = append(vs, v(control.String(), control, true))
	}
	return vs
}

// runRegime drives one admission regime on its freshly built system.
// withBatch=false is the uncontended reference.
func (cfg ServeConfig) runRegime(sys *system.System, control serve.Control, withBatch bool, mode string) (*RunResult, error) {
	front, err := sys.StartServe(serve.Config{
		Tenants: []serve.TenantSpec{
			// No rate contract: the paying tenant bought headroom.
			{Name: payingTenant, Tag: TagPaying, Deadline: payingDeadline, MissBudget: payingBudget},
			{Name: batchTenant, Tag: TagBatch, Deadline: batchDeadline, MissBudget: batchBudget,
				Rate: batchRate, Burst: 16},
		},
		Control: control,
	})
	if err != nil {
		return nil, err
	}
	val := make([]byte, serveValBytes)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	// Both stores exist in every regime; only the tenants in clients
	// open sessions and run (the uncontended reference: paying alone).
	payingN := cfg.payingN()
	type tenant struct {
		name     string
		tag      uint32
		firstID  int // keeps the groups' terminal — and so span — IDs disjoint
		n        int
		seed     int64
		think    sim.Time
		deadline sim.Time
		sessions []workload.Workload // one per terminal, opened by load
	}
	tenants := []*tenant{
		{name: payingTenant, tag: TagPaying, n: payingN, seed: cfg.Seed,
			think: payingThink, deadline: payingDeadline},
		{name: batchTenant, tag: TagBatch, firstID: payingN, n: cfg.Workers - payingN,
			seed: cfg.Seed + 1_000_003, deadline: batchDeadline},
	}
	clients := tenants
	if !withBatch {
		clients = tenants[:1]
	}
	start := background(cfg.Writers, storage.AssocDieWise)
	for _, t := range clients {
		// Deferred to start time: the sessions exist once load ran.
		start = append(start, func(r *running) {
			terminals(t.name, t.sessions[0], workload.TerminalConfig{
				N: t.n, FirstID: t.firstID, Seed: t.seed, Think: t.think,
				Retry:         func(err error) bool { return errors.Is(err, serve.ErrShed) },
				TagOf:         func(int) uint32 { return t.tag },
				DeadlineAfter: func(int) sim.Time { return t.deadline },
				WorkloadOf:    func(id int) workload.Workload { return t.sessions[id-t.firstID] },
			})(r)
		})
	}
	// Per-tenant commit tails as gauges, so the sampled series carries
	// the split the controller acts on. Registered after the
	// clients exist and before the kernel runs — the registry seals at
	// the first sampler tick.
	start = append(start, func(r *running) {
		for _, g := range r.groups {
			terms, tag := g.terms, g.tag
			sys.Tel.Reg.Gauge("serve.tenant."+g.name+"_commit_p99_us", func() float64 {
				h := terms.TagCommitHist(tag)
				return us(h.Percentile(99))
			})
		}
	})

	return execute(sys, run{
		name: "serve " + mode,
		load: func(sys *system.System) error {
			for _, t := range tenants {
				if _, err := front.CreateStore(sys.Ctx, t.name); err != nil {
					return err
				}
				if err := front.Preload(sys.Ctx, t.name, cfg.Rows, val); err != nil {
					return fmt.Errorf("preload %s: %w", t.name, err)
				}
			}
			// One session per terminal, opened up front so setup errors
			// surface here instead of inside a proc.
			for _, t := range clients {
				for i := 0; i < t.n; i++ {
					s, err := front.OpenSession(t.name, t.name)
					if err != nil {
						return err
					}
					t.sessions = append(t.sessions, &kvWorkload{s: s, rows: cfg.Rows, val: val})
				}
			}
			return nil
		},
		start:   start,
		warm:    cfg.Warm,
		settle:  cfg.Settle,
		measure: cfg.Measure,
		fault:   cfg.fault,
	})
}
