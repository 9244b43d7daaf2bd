package health

import (
	"fmt"

	"noftl/internal/sim"
	"noftl/internal/telemetry"
)

// RuleKind selects how a rule is evaluated at a sampler tick.
type RuleKind uint8

// Rule kinds.
const (
	// RuleAbove breaches when the metric exceeds Threshold.
	RuleAbove RuleKind = iota
	// RuleBelow breaches when the metric drops under Threshold.
	RuleBelow
	// RuleBurnRate breaches when the deadline-miss budget burn rate
	// over the sampler window exceeds Threshold (1.0 = burning exactly
	// the budget). Burn = (window misses / window commits) / Budget,
	// scoped by Tag (0 = all traffic).
	RuleBurnRate
)

// String names the kind for tables and alert details.
func (k RuleKind) String() string {
	switch k {
	case RuleAbove:
		return "above"
	case RuleBelow:
		return "below"
	default:
		return "burn-rate"
	}
}

// Rule is one declarative SLO rule, evaluated at every sampler tick.
type Rule struct {
	// Name identifies the rule in alerts and tables.
	Name string
	// Kind selects threshold vs burn-rate evaluation.
	Kind RuleKind
	// Metric names the registry metric read by RuleAbove/RuleBelow.
	Metric string
	// Threshold is the bound (metric value, or burn factor for
	// RuleBurnRate; 0 defaults to 1.0 there).
	Threshold float64
	// Tag scopes RuleBurnRate to one tenant tag (0 = all traffic).
	Tag uint32
	// Budget is the allowed deadline-miss fraction for RuleBurnRate
	// (e.g. 0.01 = 1% of commits may miss).
	Budget float64
	// For requires the breach to persist this many consecutive samples
	// before firing (hysteresis; 0 and 1 both mean fire immediately).
	For int
	// Severity is "warn" (default) or "page".
	Severity string
}

// ruleState tracks one rule's hysteresis and firing state.
type ruleState struct {
	breached int  // consecutive breached samples
	active   bool // currently firing
	// burn-rate window baselines
	lastCommits int64
	lastMisses  int64
}

// Engine evaluates SLO rules against the telemetry pipeline and emits
// alert transitions into the flight recorder.
type Engine struct {
	rules []Rule
	state []ruleState
	tel   *telemetry.Telemetry
}

// NewEngine builds an engine over a rule set. Zero-value thresholds of
// burn-rate rules default to 1.0; severities default to "warn".
func NewEngine(rules []Rule, tel *telemetry.Telemetry) *Engine {
	rs := make([]Rule, len(rules))
	copy(rs, rules)
	for i := range rs {
		if rs[i].Kind == RuleBurnRate && rs[i].Threshold == 0 {
			rs[i].Threshold = 1.0
		}
		if rs[i].Severity == "" {
			rs[i].Severity = "warn"
		}
		if rs[i].For < 1 {
			rs[i].For = 1
		}
	}
	return &Engine{rules: rs, state: make([]ruleState, len(rs)), tel: tel}
}

// Active reports whether a rule is currently firing.
func (e *Engine) Active(name string) bool {
	for i, r := range e.rules {
		if r.Name == name {
			return e.state[i].active
		}
	}
	return false
}

// Eval evaluates every rule at the sampler tick now, emitting
// firing/resolved transitions into the flight recorder's alert log.
func (e *Engine) Eval(now sim.Time) {
	for i := range e.rules {
		r := &e.rules[i]
		st := &e.state[i]
		value, breach, ok := e.observe(r, st)
		if !ok {
			continue
		}
		if breach {
			st.breached++
			if !st.active && st.breached >= r.For {
				st.active = true
				e.emit(now, r, "firing", value)
			}
		} else {
			if st.active {
				e.emit(now, r, "resolved", value)
			}
			st.active = false
			st.breached = 0
		}
	}
}

// observe computes a rule's current value and breach verdict; ok is
// false when the rule references an unregistered metric.
func (e *Engine) observe(r *Rule, st *ruleState) (value float64, breach, ok bool) {
	switch r.Kind {
	case RuleBurnRate:
		commits, misses := e.tallies(r.Tag)
		dc, dm := commits-st.lastCommits, misses-st.lastMisses
		st.lastCommits, st.lastMisses = commits, misses
		if dc <= 0 || r.Budget <= 0 {
			return 0, false, true // no traffic this window: nothing burned
		}
		burn := (float64(dm) / float64(dc)) / r.Budget
		return burn, burn > r.Threshold, true
	case RuleBelow:
		v, found := e.tel.Reg.Value(r.Metric)
		return v, found && v < r.Threshold, found
	default: // RuleAbove
		v, found := e.tel.Reg.Value(r.Metric)
		return v, found && v > r.Threshold, found
	}
}

// tallies returns cumulative commits and deadline misses, scoped to a
// tag (0 = all traffic).
func (e *Engine) tallies(tag uint32) (commits, misses int64) {
	if tag == 0 {
		return e.tel.Commits(), e.tel.Recorder().TotalMisses()
	}
	return e.tel.TagCommits(tag), e.tel.Recorder().MissCount(tag)
}

func (e *Engine) emit(now sim.Time, r *Rule, state string, value float64) {
	detail := fmt.Sprintf("%s %s: value %.4g vs threshold %.4g", r.Name, r.Kind, value, r.Threshold)
	if r.Kind == RuleBurnRate {
		detail = fmt.Sprintf("%s burn-rate: burning %.3gx of a %g miss budget", r.Name, value, r.Budget)
	}
	e.tel.Recorder().NoteAlert(telemetry.Alert{
		TNs: now, Rule: r.Name, Severity: r.Severity, State: state,
		Value: value, Threshold: r.Threshold, Tag: r.Tag, Detail: detail,
	})
}

// DefaultRules builds the stock device SLO set:
//   - wear_spread: device erase-count spread above wearSpread (For 2).
//   - free_floor: pooled free blocks at or under freeFloor.
//   - p99_ceiling: windowed commit p99 above p99CeilUs microseconds.
//   - deadline_burn: all-traffic deadline-miss burn above 1x of
//     missBudget (fraction of commits allowed to miss), For 2.
//
// Pass a non-positive value to drop the corresponding rule.
func DefaultRules(wearSpread float64, freeFloor float64, p99CeilUs float64, missBudget float64) []Rule {
	var out []Rule
	if wearSpread > 0 {
		out = append(out, Rule{Name: "wear_spread", Kind: RuleAbove,
			Metric: "health.wear_spread", Threshold: wearSpread, For: 2})
	}
	if freeFloor > 0 {
		out = append(out, Rule{Name: "free_floor", Kind: RuleBelow,
			Metric: "noftl.free_blocks", Threshold: freeFloor, Severity: "page"})
	}
	if p99CeilUs > 0 {
		out = append(out, Rule{Name: "p99_ceiling", Kind: RuleAbove,
			Metric: "commit.p99_us", Threshold: p99CeilUs})
	}
	if missBudget > 0 {
		out = append(out, Rule{Name: "deadline_burn", Kind: RuleBurnRate,
			Budget: missBudget, For: 2, Severity: "page"})
	}
	return out
}
