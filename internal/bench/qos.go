package bench

import (
	"fmt"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
	"noftl/internal/stats"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// QoS (quality-of-service demo): two tenants — each a TPC-B instance
// with its own tables and terminal group — share one region-managed,
// priority-scheduled NoFTL stack. The high tenant runs with the default
// request descriptor (foreground priorities) plus a per-transaction
// deadline; the low tenant declares itself low-priority (ClassPrefetch)
// on every request, so its reads and write-backs queue below the high
// tenant's at every die (commit-path WAL flushes stay in the WAL class
// for both — the shared log must not invert priorities). Each tenant
// carries its own stream tag, so the per-tag commit-latency split the
// scheduler produces is measured exactly — the end-to-end demonstration
// that a request's intent, declared at the workload layer, survives to
// the flash command queues.

// Stream tags of the two terminal groups.
const (
	TagHighPriority uint32 = 1
	TagLowPriority  uint32 = 2
)

// QoSConfig parameterizes the QoS demo. Params.Workers is the total
// terminal count, split evenly between the tenants; an attached Blame
// config with empty TagNames gets the demo's tenant names
// (QoSTagNames).
type QoSConfig struct {
	Params
	// LowDeadline stamps the low tenant's transactions with a completion
	// deadline this far ahead, so its SLO misses are measured (and
	// blame-attributable) too. Default 0: off — the low tenant then runs
	// deadline-free, the original demo behavior.
	LowDeadline sim.Time

	// TPCB sizes each tenant's tables; default: per geometry, each
	// tenant ~68% of half the data region.
	//noftl:ignore setter workload or run scale: tests shrink it to stay fast
	TPCB workload.TPCBConfig
}

// qosHighDeadline stamps each high-priority transaction with a
// completion deadline this far ahead; past it, the scheduler promotes
// its still-queued commands ahead of every class.
const qosHighDeadline = 4 * sim.Millisecond

// QoSResult is the QoS demo outcome. Result.Sched is the scheduler
// accounting of the run.
type QoSResult struct {
	Result RunResult
	// High and Low are the two tenants' rows of Result.Groups.
	High, Low *GroupResult
	Observed
}

// QoSTagNames names the demo's stream tags for blame tables and flame
// stacks: the two tenants plus the background db-writer and
// checkpointer streams.
func QoSTagNames() map[uint32]string {
	return map[uint32]string{
		TagHighPriority: "high",
		TagLowPriority:  "low",
		tagWriters:      "writers",
		tagCheckpointer: "ckpt",
	}
}

// P99Ratio is the low-priority group's p99 commit latency over the
// high-priority group's (> 1 means the declared priorities split the
// tails — the point of the demo).
func (r *QoSResult) P99Ratio() float64 {
	hp := r.High.Commit.Percentile(99)
	if hp == 0 {
		return 0
	}
	return float64(r.Low.Commit.Percentile(99)) / float64(hp)
}

// Table renders the per-group comparison.
func (r *QoSResult) Table() string {
	t := stats.NewTable("group", "terminals", "TPS", "commit p50", "p95", "p99", "misses")
	for _, g := range []*GroupResult{r.High, r.Low} {
		t.Row(g.Name, g.Clients, g.TPS,
			g.Commit.Percentile(50).String(),
			g.Commit.Percentile(95).String(),
			g.Commit.Percentile(99).String(),
			g.DeadlineMisses)
	}
	return t.String()
}

// AddTo appends the demo's per-tenant rows to a machine-readable
// report: one row per group with its throughput, commit tails and
// deadline accounting, plus the shared device's health columns; the
// blame shares are the tenant's own.
func (r *QoSResult) AddTo(rep *JSONReport) {
	for _, g := range []*GroupResult{r.High, r.Low} {
		jr := JSONResult{Experiment: "qos", Workload: "tpcb-2tenant",
			Stack: string(system.StackNoFTLRegions), Mode: g.Name,
			DeadlinePromotions: r.Result.Sched.DeadlinePromotions}
		jr.setObserved(&r.Observed)
		if r.Blame != nil {
			jr.BlameShares = r.Blame.ShareMap(g.Tag)
		}
		rep.Add(jr, r.Result.tenant(g))
	}
}

// QoS runs the demo: one freshly built region-managed system, priority
// scheduling, background GC, two tagged tenants with disjoint TPC-B
// table sets (a lock conflict between tenants would smear the split
// with priority inversion the I/O scheduler cannot see).
func QoS(cfg QoSConfig) (*QoSResult, error) {
	cfg.Params = cfg.Params.withDefaults("qos")
	if cfg.Blame != nil && cfg.Blame.TagNames == nil {
		bl := *cfg.Blame
		bl.TagNames = QoSTagNames()
		cfg.Blame = &bl
	}
	sys, err := cfg.build(system.StackNoFTLRegions,
		system.WithPriorityScheduler(), system.WithBackgroundGC())
	if err != nil {
		return nil, fmt.Errorf("qos: %w", err)
	}
	tpcb := cfg.TPCB
	if tpcb.Branches == 0 {
		tpcb = deriveTPCB(sys.NoFTL.LogicalPages()/2, 0.68)
	}
	wlHigh, wlLow := workload.NewTPCB(tpcb), workload.NewTPCBNamed("tpcb2", tpcb)
	deadline := func(d sim.Time) func(int) sim.Time {
		return func(int) sim.Time { return max(d, 0) }
	}
	highN := cfg.Workers / 2
	r, err := execute(sys, run{
		name: "qos",
		load: func(sys *system.System) error {
			if err := wlHigh.Load(sys.Ctx, sys.Engine); err != nil {
				return err
			}
			return wlLow.Load(sys.Ctx, sys.Engine)
		},
		start: append(background(cfg.Writers, storage.AssocDieWise),
			terminals("high", wlHigh, workload.TerminalConfig{
				N: highN, Seed: cfg.Seed,
				TagOf:         func(int) uint32 { return TagHighPriority },
				DeadlineAfter: deadline(qosHighDeadline),
			}),
			// FirstID keeps the two groups' terminal IDs — and so their
			// span IDs — disjoint; colliding IDs would cross-wire the
			// blame join.
			terminals("low", wlLow, workload.TerminalConfig{
				N: cfg.Workers - highN, FirstID: highN, Seed: cfg.Seed + 1_000_003,
				TagOf:         func(int) uint32 { return TagLowPriority },
				ClassOf:       func(int) ioreq.Class { return ioreq.ClassPrefetch },
				DeadlineAfter: deadline(cfg.LowDeadline),
			})),
		warm:    cfg.Warm,
		measure: cfg.Measure,
		fault:   cfg.fault,
	})
	if err != nil {
		return nil, err
	}
	out := &QoSResult{Result: *r}
	out.High, out.Low = out.Result.Group("high"), out.Result.Group("low")
	out.Observed = cfg.observe(sys)
	return out, nil
}
