package telemetry

import (
	"fmt"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
	"noftl/internal/stats"
)

// Config tunes a Telemetry instance.
type Config struct {
	// SlowestK is the flight recorder's slowest-request retention.
	// Default 16.
	SlowestK int
	// RetainSpans keeps every recorded span for trace export
	// (memory proportional to committed transactions; off by default).
	RetainSpans bool
}

func (c Config) withDefaults() Config {
	if c.SlowestK <= 0 {
		c.SlowestK = 16
	}
	return c
}

// sampleEvery is the time-series sampling period on the simulated clock.
const sampleEvery = 100 * sim.Millisecond

// Sample is one sampling instant: the simulated time and every
// registered metric's value, in the registry's column order.
type Sample struct {
	T      sim.Time  `json:"t_ns"`
	Values []float64 `json:"values"`
}

// Series is a sampled metrics time series.
type Series struct {
	Names   []string `json:"names"`
	Samples []Sample `json:"samples"`
}

// Column returns a metric's values over time (nil when the name is
// unknown).
func (s *Series) Column(name string) []float64 {
	col := -1
	for i, n := range s.Names {
		if n == name {
			col = i
			break
		}
	}
	if col < 0 {
		return nil
	}
	out := make([]float64, 0, len(s.Samples))
	for _, smp := range s.Samples {
		if col < len(smp.Values) {
			out = append(out, smp.Values[col])
		}
	}
	return out
}

// Telemetry aggregates the registry, the periodic sampler, the span
// sink and the flight recorder for one system.
type Telemetry struct {
	cfg Config
	// Reg is the metrics registry; package system registers the layer
	// counters on it, and callers may add their own gauges before the
	// first sample.
	Reg *Registry

	rec    *FlightRecorder
	series Series
	spans  []*ioreq.Span

	commits    int64
	misses     int64
	spanCmds   int64
	lastSample sim.Time
	winHist    stats.Histogram
	winCommits int64
	// Window metrics latched by sample() just before the registry read.
	winTPS, winP99us, winMeanUs float64

	// Per-tag cumulative commit counts (burn-rate denominators for the
	// serving front's admission guard).
	tagCommits map[uint32]int64

	// onSample hooks run at the end of every sample() tick — the serving
	// front registers its burn-rate guard here.
	onSample []func(now sim.Time)
}

// New builds a Telemetry with the commit/window metrics pre-registered.
func New(cfg Config) *Telemetry {
	cfg = cfg.withDefaults()
	t := &Telemetry{cfg: cfg, Reg: NewRegistry(),
		rec:        NewFlightRecorder(cfg.SlowestK),
		tagCommits: map[uint32]int64{}}
	t.Reg.Gauge("commit.tps", func() float64 { return t.winTPS })
	t.Reg.Gauge("commit.p99_us", func() float64 { return t.winP99us })
	t.Reg.Gauge("commit.mean_us", func() float64 { return t.winMeanUs })
	t.Reg.Counter("commit.count", func() int64 { return t.commits })
	t.Reg.Counter("commit.deadline_misses", func() int64 { return t.misses })
	t.Reg.Counter("span.flash_cmds", func() int64 { return t.spanCmds })
	return t
}

// Recorder returns the flight recorder.
func (t *Telemetry) Recorder() *FlightRecorder { return t.rec }

// Series returns the sampled time series.
func (t *Telemetry) Series() *Series { return &t.series }

// Spans returns every retained span (RetainSpans runs only).
func (t *Telemetry) Spans() []*ioreq.Span { return t.spans }

// TagCommits counts spans recorded so far for one tenant tag.
func (t *Telemetry) TagCommits(tag uint32) int64 { return t.tagCommits[tag] }

// OnSample registers a hook invoked at the end of every sampler tick,
// after the sample row is appended. Hooks run in registration order on
// the sim thread. Register before Start.
func (t *Telemetry) OnSample(fn func(now sim.Time)) {
	t.onSample = append(t.onSample, fn)
}

// RecordSpan is the span sink: terminals hand every finished
// transaction span to it.
func (t *Telemetry) RecordSpan(sp *ioreq.Span) {
	if sp == nil {
		return
	}
	t.commits++
	t.winCommits++
	t.tagCommits[sp.Tag]++
	t.spanCmds += sp.Cmds
	t.winHist.Add(sp.Latency())
	if sp.Missed() {
		t.misses++
	}
	t.rec.Record(sp)
	if t.cfg.RetainSpans {
		t.spans = append(t.spans, sp)
	}
}

// Start launches the periodic sampler process on the kernel; it runs
// until kernel shutdown. Call after the registry is fully populated so
// the series' columns are complete from the first sample.
func (t *Telemetry) Start(k *sim.Kernel) {
	k.Go("telemetry-sampler", func(p *sim.Proc) {
		for {
			p.Sleep(sampleEvery)
			t.sample(p.Now())
		}
	})
}

// sample latches the window metrics, reads every registered metric and
// appends one sample, then resets the window.
func (t *Telemetry) sample(now sim.Time) {
	if dt := now - t.lastSample; dt > 0 {
		t.winTPS = float64(t.winCommits) / dt.Seconds()
	} else {
		t.winTPS = 0
	}
	if t.winHist.Empty() {
		t.winP99us, t.winMeanUs = 0, 0
	} else {
		t.winP99us = usFloat(t.winHist.Percentile(99))
		t.winMeanUs = usFloat(t.winHist.Mean())
	}
	if t.series.Names == nil {
		// The column set is fixed by the first sample; seal the registry
		// so a late registration fails loudly instead of silently
		// desyncing names from values.
		t.Reg.Seal()
		t.series.Names = t.Reg.Names()
	}
	t.series.Samples = append(t.series.Samples, Sample{T: now, Values: t.Reg.ReadAll()})
	t.winCommits = 0
	t.winHist = stats.Histogram{}
	t.lastSample = now
	for _, fn := range t.onSample {
		fn(now)
	}
}

func usFloat(d sim.Time) float64 { return float64(d) / float64(sim.Microsecond) }

// SlowestTable renders the flight recorder's slowest commits with
// their per-stage decomposition (one column per span stage).
func (t *Telemetry) SlowestTable() string {
	cols := []string{"span", "terminal", "tag", "latency"}
	for st := ioreq.Stage(0); st < ioreq.NumStages; st++ {
		cols = append(cols, st.String())
	}
	tab := stats.NewTable(cols...)
	for _, sp := range t.rec.Slowest() {
		row := []any{fmt.Sprintf("%#x", sp.ID), sp.TID, sp.Tag, sp.Latency().String()}
		for st := ioreq.Stage(0); st < ioreq.NumStages; st++ {
			row = append(row, sp.Durations[st].String())
		}
		tab.Row(row...)
	}
	return tab.String()
}
