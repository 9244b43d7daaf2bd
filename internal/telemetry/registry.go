// Package telemetry is the cross-layer observability substrate: a
// unified metrics registry sampled into time series on the simulated
// clock, a flight recorder retaining full span breakdowns for the
// slowest requests and every deadline miss, and exporters producing
// Chrome trace-event JSON (Perfetto-loadable) and a machine-readable
// metrics file.
//
// The layers themselves stay telemetry-free: package system registers
// read-closures over the counters every layer already exposes
// (flash.Stats, sched.Stats, ftl.Stats, BufferStats, WAL counters), and
// request paths carry an optional ioreq.Span that is nil when telemetry is off — a nil check per
// instrumentation point is the entire disabled-path cost.
//
// Metric names follow a "layer.metric" scheme (flash.erases,
// sched.wait.read_us, buffer.hit_rate, noftl.free_blocks); per-class
// scheduler metrics append the class name. Registration order is the
// column order of the exported series, so a fixed build produces
// byte-identical exports for a fixed seed.
package telemetry

import "fmt"

// Metric is one registered named read-closure.
type Metric struct {
	// Name is the "layer.metric" identifier.
	Name string
	// Read samples the current value (cumulative counters stay
	// monotonic; window metrics are reset by the sampler after each
	// sample).
	Read func() float64
}

// Registry is an ordered set of named metrics. It is not safe for
// concurrent registration; the DES kernel's cooperative scheduling
// makes sampling single-threaded.
//
// The registry seals at the sampler's first tick: the column set of a
// series is fixed by its first sample, so registering a NEW metric
// after that point would silently desync names from values (the bug
// class Seal exists to reject). Replacing an existing metric's closure
// stays legal at any time.
type Registry struct {
	metrics []Metric
	byName  map[string]int
	sealed  bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

// Gauge registers (or replaces) a metric under name. The closure is
// invoked at every sample point. Registering a new name on a sealed
// registry panics: it is a wiring bug — the series' columns are fixed
// by the first sample and a late column would be invisible in every
// export.
func (r *Registry) Gauge(name string, read func() float64) { r.register(name, read) }

// Counter registers an int64-valued cumulative metric (a convenience
// over Gauge — the registry stores everything as float64 samples).
func (r *Registry) Counter(name string, read func() int64) {
	r.register(name, func() float64 { return float64(read()) })
}

func (r *Registry) register(name string, read func() float64) {
	if i, ok := r.byName[name]; ok {
		r.metrics[i].Read = read
		return
	}
	if r.sealed {
		panic(fmt.Sprintf("telemetry: metric %q registered after the first sample; "+
			"register every metric before the sampler starts (Telemetry.Start)", name))
	}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, Metric{Name: name, Read: read})
}

// Seal freezes the metric set: replacing an existing closure stays
// allowed, registering a new name panics. The sampler calls it at its
// first tick; idempotent.
func (r *Registry) Seal() { r.sealed = true }

// Names returns the metric names in registration (column) order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.Name
	}
	return out
}

// ReadAll samples every metric in column order.
func (r *Registry) ReadAll() []float64 {
	out := make([]float64, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.Read()
	}
	return out
}
