package noftl

// The public device-health facade: structured health snapshots
// (per-die wear heatmaps and erase histograms, wear percentiles,
// per-region GC efficiency and write-amplification decomposition,
// occupancy timelines). Attach it with WithHealth; it brings default
// telemetry with it.

import (
	"encoding/json"
	"io"

	"noftl/internal/system"
	"noftl/internal/telemetry/health"
)

// HealthSnapshot is the structured device-health snapshot: per-die
// wear heatmaps and histograms, device-wide wear percentiles,
// per-region GC efficiency and series timelines.
type HealthSnapshot = health.Snapshot

// WithHealth attaches the device-health monitor to a facade-built
// system: snapshot probes over every assembled layer, with timelines
// from the telemetry sampler. Implies default telemetry.
func WithHealth() SystemOption { return system.WithHealth() }

// WriteHealthSnapshot renders a health snapshot as indented JSON
// (byte-deterministic for a fixed-seed run).
func WriteHealthSnapshot(w io.Writer, s *HealthSnapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}
