// Package telemetry is the cross-layer observability substrate: a
// unified metrics registry sampled into time series on the simulated
// clock, a flight recorder retaining full span breakdowns for the
// slowest requests and every deadline miss, an alert log fed by the
// device-health SLO engine (package telemetry/health), and exporters
// producing Chrome trace-event JSON (Perfetto-loadable), a
// machine-readable metrics file and Prometheus text exposition.
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

// MetricKind distinguishes cumulative counters from point-in-time
// gauges — the Prometheus exposition needs the distinction for its
// TYPE lines; the series sampler treats both as float64 columns.
type MetricKind uint8

// Metric kinds.
const (
	// KindGauge is a point-in-time value (occupancy, queue depth, rate).
	KindGauge MetricKind = iota
	// KindCounter is a monotonically non-decreasing cumulative count.
	KindCounter
)

// String names the kind in Prometheus exposition vocabulary.
func (k MetricKind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Metric is one registered named read-closure.
type Metric struct {
	// Name is the "layer.metric" identifier.
	Name string
	// Kind tags the metric counter or gauge (export typing only).
	Kind MetricKind
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
func (r *Registry) Gauge(name string, read func() float64) {
	r.register(name, KindGauge, read)
}

// Counter registers an int64-valued cumulative metric (a convenience
// over Gauge — the registry stores everything as float64 samples, but
// the metric is typed counter in Prometheus exposition).
func (r *Registry) Counter(name string, read func() int64) {
	r.register(name, KindCounter, func() float64 { return float64(read()) })
}

func (r *Registry) register(name string, kind MetricKind, read func() float64) {
	if i, ok := r.byName[name]; ok {
		r.metrics[i].Read = read
		r.metrics[i].Kind = kind
		return
	}
	if r.sealed {
		panic(fmt.Sprintf("telemetry: metric %q registered after the first sample; "+
			"register every metric before the sampler starts (Telemetry.Start)", name))
	}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, Metric{Name: name, Kind: kind, Read: read})
}

// Seal freezes the metric set: replacing an existing closure stays
// allowed, registering a new name panics. The sampler calls it at its
// first tick; idempotent.
func (r *Registry) Seal() { r.sealed = true }

// Sealed reports whether the metric set is frozen.
func (r *Registry) Sealed() bool { return r.sealed }

// Names returns the metric names in registration (column) order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.Name
	}
	return out
}

// Metrics returns the registered metrics in column order (exporters
// iterate it for names and kinds; the slice is shared, do not mutate).
func (r *Registry) Metrics() []Metric { return r.metrics }

// Len reports the number of registered metrics.
func (r *Registry) Len() int { return len(r.metrics) }

// Value samples one metric by name, reporting whether it exists.
func (r *Registry) Value(name string) (float64, bool) {
	i, ok := r.byName[name]
	if !ok {
		return 0, false
	}
	return r.metrics[i].Read(), true
}

// ReadAll samples every metric in column order.
func (r *Registry) ReadAll() []float64 {
	out := make([]float64, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.Read()
	}
	return out
}
