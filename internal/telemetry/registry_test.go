package telemetry

import (
	"slices"
	"strings"
	"testing"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
)

// Registering a brand-new metric after the first sample used to desync
// Series.Names (latched at the first sample) from the value rows —
// Column silently truncated. The registry now seals at the first
// sample and rejects the late registration loudly.
func TestRegistryRejectsLateRegistration(t *testing.T) {
	tel := New(Config{})
	tel.Reg.Gauge("layer.early", func() float64 { return 1 })

	k := sim.New()
	tel.Start(k)
	k.RunFor(sampleEvery * 3)

	if !tel.Reg.sealed {
		t.Fatalf("registry not sealed after first sample")
	}
	wantCols := len(tel.Reg.metrics)
	for _, s := range tel.Series().Samples {
		if len(s.Values) != wantCols {
			t.Fatalf("sample row has %d values, want %d", len(s.Values), wantCols)
		}
	}

	// A new name must panic with an actionable message.
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("late registration of a new metric did not panic")
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "layer.late") {
				t.Fatalf("panic %v does not name the offending metric", r)
			}
		}()
		tel.Reg.Gauge("layer.late", func() float64 { return 2 })
	}()

	// Replacing an existing metric's closure stays legal after sealing.
	tel.Reg.Gauge("layer.early", func() float64 { return 42 })

	// And the series stays rectangular after more samples, sampling the
	// replaced closure.
	k.RunFor(sampleEvery * 2)
	for i, s := range tel.Series().Samples {
		if len(s.Values) != wantCols {
			t.Fatalf("sample %d has %d values, want %d", i, len(s.Values), wantCols)
		}
	}
	col := tel.Series().Column("layer.early")
	if len(col) != len(tel.Series().Samples) {
		t.Fatalf("column truncated: %d values for %d samples", len(col), len(tel.Series().Samples))
	}
	if v := col[len(col)-1]; v != 42 {
		t.Fatalf("replaced closure not in effect: last sample %v", v)
	}
}

func TestRegistryValueAndKinds(t *testing.T) {
	r := NewRegistry()
	var n int64 = 7
	r.Counter("a.count", func() int64 { return n })
	r.Gauge("a.level", func() float64 { return 0.5 })

	// Counters and gauges share one column space, in registration order.
	if names := r.Names(); !slices.Equal(names, []string{"a.count", "a.level"}) {
		t.Fatalf("Names() = %v", names)
	}
	if vals := r.ReadAll(); !slices.Equal(vals, []float64{7, 0.5}) {
		t.Fatalf("ReadAll() = %v", vals)
	}
}

func TestTelemetryTagCommitsAndHooks(t *testing.T) {
	tel := New(Config{})
	span := func(tag uint32) *ioreq.Span {
		sp := ioreq.NewSpan(1, 0, tag)
		sp.Begin(0)
		sp.Finish(10)
		return sp
	}
	tel.RecordSpan(span(7))
	tel.RecordSpan(span(9))
	tel.RecordSpan(span(7))

	if got := tel.TagCommits(7); got != 2 {
		t.Fatalf("TagCommits(7) = %d, want 2", got)
	}
	if got := tel.TagCommits(9); got != 1 {
		t.Fatalf("TagCommits(9) = %d, want 1", got)
	}

	var ticks []sim.Time
	tel.OnSample(func(now sim.Time) { ticks = append(ticks, now) })
	k := sim.New()
	tel.Start(k)
	k.RunFor(sampleEvery * 3)
	if len(ticks) != 3 {
		t.Fatalf("OnSample fired %d times, want 3", len(ticks))
	}
	for i, tk := range ticks {
		if want := sampleEvery * sim.Time(i+1); tk != want {
			t.Fatalf("tick %d at %v, want %v", i, tk, want)
		}
	}
}
