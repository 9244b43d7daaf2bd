package serve

import (
	"noftl/internal/ioreq"
	"noftl/internal/sim"
)

// TenantState is a tenant's current service level under the burn-rate
// guard. It only moves under ControlFull; the other regimes leave every
// tenant Healthy.
type TenantState uint8

// Service levels, escalation order.
const (
	// Healthy: requests admitted at the tenant's declared class.
	Healthy TenantState = iota
	// Deprioritized: the tenant is burning its deadline-miss budget;
	// admitted requests dispatch at the degraded class so compliant
	// tenants stop paying for the breach.
	Deprioritized
	// Shed: the burn persisted through deprioritization; requests past
	// the token bucket are rejected with ErrShed, the in-budget residue
	// still runs at the degraded class.
	Shed
)

// String names the state for tables and metrics.
func (s TenantState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Deprioritized:
		return "deprioritized"
	case Shed:
		return "shed"
	default:
		return "TenantState(?)"
	}
}

// tenant is the controller's per-tenant runtime state.
type tenant struct {
	spec TenantSpec
	bkt  bucket
	// shedErr is the error a shed request surfaces, built once per
	// tenant so the shed path allocates nothing.
	shedErr error

	state    TenantState
	breaches int // consecutive breached burn windows
	cleans   int // consecutive clean burn windows

	// Burn-window baselines: the telemetry tallies at the last sample,
	// mirroring the health engine's windowed burn arithmetic.
	lastCommits int64
	lastMisses  int64

	admitted      int64
	deprioritized int64
	shed          int64
	escalations   int64
	relaxations   int64
}

// The controller's fixed parameters.
const (
	// degradedClass is the class deprioritized/shed tenants' admitted
	// requests dispatch at: below every foreground class, above GC.
	degradedClass = ioreq.ClassPrefetch
	// escalateAfter is how many consecutive breached burn windows
	// (burn > 1) escalate a tenant one level (healthy → deprioritized →
	// shed).
	escalateAfter = 2
	// relaxAfter is how many consecutive clean windows (burn <
	// relaxBelow) de-escalate a tenant one level — slower than
	// escalation, so recovery does not flap back into breach.
	relaxAfter = 4
	// relaxBelow is the burn factor under which a window counts as
	// clean: a tenant must burn under half its budget to earn its way
	// back. Windows between relaxBelow and 1 reset both streaks
	// (hysteresis dead band).
	relaxBelow = 0.5
	// shedBackoff floors the client-side backoff a shed request sleeps
	// before ErrShed surfaces (the bucket's next-token time is used when
	// later). It is what keeps a shed retry loop from spinning the
	// simulation at one instant.
	shedBackoff = 500 * sim.Microsecond
)

// decision is one admission outcome: either admit (possibly after
// sleeping until wait, possibly at the degraded class) or shed (sleep
// the backoff, then surface ErrShed).
type decision struct {
	class ioreq.Class
	wait  sim.Time // nonzero: sleep until this instant, then re-admit
	shed  bool
	retry sim.Time // shed: client backoff — sleep until here before erroring
}

// admit runs one request of tenant t through the controller at the
// simulated instant now.
func (f *Front) admit(t *tenant, now sim.Time) decision {
	cls := t.spec.Class
	if f.cfg.Control == ControlFull && t.state != Healthy {
		cls = degradedClass
	}
	if f.cfg.Control == ControlNone || !t.bkt.limited() {
		// An unlimited-rate tenant cannot run out of tokens, so it is
		// never paced or shed — but it is still deprioritized above.
		f.count(t)
		return decision{class: cls}
	}
	ok, readyAt := t.bkt.take(now)
	if ok {
		f.count(t)
		return decision{class: cls}
	}
	if f.cfg.Control == ControlFull && t.state == Shed {
		t.shed++
		f.shed++
		retry := readyAt
		if min := now + shedBackoff; retry < min {
			retry = min
		}
		return decision{shed: true, retry: retry}
	}
	// Paced: out of tokens but not shedding — the caller sleeps until
	// the next token and admits then.
	return decision{wait: readyAt}
}

// count books one admitted request on the tenant and the front.
func (f *Front) count(t *tenant) {
	t.admitted++
	f.admitted++
	if f.cfg.Control == ControlFull && t.state != Healthy {
		t.deprioritized++
		f.deprioritized++
	}
}

// observe is the burn-rate guard, run at every telemetry sampler tick
// (Attach hooks it under ControlFull); it is the repo's one burn-rate
// implementation. Per tenant it computes the windowed burn — (window
// deadline misses / window commits) / miss budget — from the telemetry
// tag-commit and flight-recorder miss tallies, and walks the
// service-level ladder with hysteresis: escalateAfter consecutive
// breached windows move one level down (healthy → deprioritized →
// shed), relaxAfter consecutive clean windows move one level back up,
// and windows in the dead band between relaxBelow and 1 reset both
// streaks.
func (f *Front) observe(now sim.Time) {
	if f.tel == nil {
		return
	}
	for _, t := range f.tenants {
		commits := f.tel.TagCommits(t.spec.Tag)
		misses := f.tel.Recorder().MissCount(t.spec.Tag)
		f.observeTenant(t, commits, misses)
	}
	_ = now
}

// observeTenant advances one tenant's burn window with fresh cumulative
// tallies (split out from observe so tests can drive the ladder without
// a telemetry pipeline).
func (f *Front) observeTenant(t *tenant, commits, misses int64) {
	dc := commits - t.lastCommits
	dm := misses - t.lastMisses
	t.lastCommits, t.lastMisses = commits, misses
	if t.spec.MissBudget <= 0 || t.spec.Deadline <= 0 {
		return
	}
	if dc <= 0 {
		// No commits this window: a shed tenant would otherwise stall
		// forever (no commits → no clean windows → no relaxation), so a
		// fully-shed silent window counts toward relaxation; windows with
		// no traffic in other states hold state.
		if t.state == Shed && dm == 0 {
			t.cleans++
			t.breaches = 0
			f.maybeRelax(t)
		}
		return
	}
	burn := (float64(dm) / float64(dc)) / t.spec.MissBudget
	switch {
	case burn > 1:
		t.breaches++
		t.cleans = 0
		if t.breaches >= escalateAfter && t.state < Shed {
			t.state++
			t.breaches = 0
			t.escalations++
		}
	case burn < relaxBelow:
		t.cleans++
		t.breaches = 0
		f.maybeRelax(t)
	default:
		// Dead band: neither breaching nor clean — hysteresis holds the
		// current level and both streaks restart.
		t.breaches, t.cleans = 0, 0
	}
}

// maybeRelax de-escalates a tenant one level once its clean streak is
// long enough.
func (f *Front) maybeRelax(t *tenant) {
	if t.cleans >= relaxAfter && t.state > Healthy {
		t.state--
		t.cleans = 0
		t.relaxations++
	}
}
