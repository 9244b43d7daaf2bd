package noftl

// The public device-health facade: structured health snapshots
// (per-die wear heatmaps and erase histograms, wear percentiles,
// per-region GC efficiency and write-amplification decomposition,
// occupancy timelines), a declarative SLO/alert engine evaluated at
// every telemetry sampler tick, and a live monitoring surface — a
// Prometheus text-format exporter over the metrics registry plus an
// opt-in HTTP endpoint serving /metrics, /health and /alerts from a
// running benchmark. Attach it with WithHealth; it brings default
// telemetry with it.

import (
	"encoding/json"
	"io"

	"noftl/internal/system"
	"noftl/internal/telemetry"
	"noftl/internal/telemetry/health"
)

type (
	// HealthConfig tunes the monitor: SLO rules, the optional live
	// monitor listen address, histogram buckets and snapshot timelines.
	HealthConfig = health.Config
	// HealthSnapshot is the structured device-health snapshot: per-die
	// wear heatmaps and histograms, device-wide wear percentiles,
	// per-region GC efficiency, series timelines and the alert log.
	HealthSnapshot = health.Snapshot
	// SLORule is one declarative health rule: a metric threshold
	// (above/below) or a deadline-miss burn-rate budget, evaluated at
	// every sampler tick with optional consecutive-sample hysteresis.
	SLORule = health.Rule
)

// WithHealth attaches the device-health monitor to a facade-built
// system: snapshot probes over every assembled layer, the SLO engine
// hooked on the telemetry sampler, and (with HealthConfig.MonitorAddr
// set) a live HTTP endpoint serving /metrics, /health and /alerts.
// Implies default telemetry.
func WithHealth(cfg HealthConfig) SystemOption { return system.WithHealth(cfg) }

// DefaultSLORules builds the stock device SLO set: wear-spread
// ceiling, free-block floor, commit-p99 ceiling and an all-traffic
// deadline-miss burn-rate budget. Pass a non-positive value to drop
// the corresponding rule.
func DefaultSLORules(wearSpread, freeFloor, p99CeilUs, missBudget float64) []SLORule {
	return health.DefaultRules(wearSpread, freeFloor, p99CeilUs, missBudget)
}

// WritePrometheus renders a metrics registry's current values in
// Prometheus text exposition format (format 0.0.4), stamped with the
// given simulated time; metric names mangle "layer.metric" to
// "noftl_layer_metric".
func WritePrometheus(w io.Writer, reg *MetricsRegistry, now SimTime) error {
	return telemetry.WriteProm(w, reg, now)
}

// WriteHealthSnapshot renders a health snapshot as indented JSON —
// the same byte-deterministic encoding the live /health endpoint
// produces.
func WriteHealthSnapshot(w io.Writer, s *HealthSnapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}
