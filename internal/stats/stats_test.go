package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"noftl/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.count != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Error("empty histogram not zero")
	}
	for i := 1; i <= 100; i++ {
		h.Add(sim.Time(i) * sim.Microsecond)
	}
	if h.count != 100 {
		t.Errorf("count = %d", h.count)
	}
	if h.Percentile(0) != sim.Microsecond || h.Max() != 100*sim.Microsecond {
		t.Errorf("min/max = %v/%v", h.Percentile(0), h.Max())
	}
	if got := h.Mean(); got != 50*sim.Microsecond+500*sim.Nanosecond {
		t.Errorf("mean = %v", got)
	}
	p50 := h.Percentile(50)
	if p50 < 40*sim.Microsecond || p50 > 80*sim.Microsecond {
		t.Errorf("p50 = %v, want ≈50µs", p50)
	}
	if h.Percentile(100) != h.Max() {
		t.Errorf("p100 = %v, want max", h.Percentile(100))
	}
	if !strings.Contains(h.String(), "n=100") {
		t.Error("String missing count")
	}
}

// Property: percentiles are monotone and bounded by max.
func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	f := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		var h Histogram
		for _, s := range samples {
			h.Add(sim.Time(s%10_000_000) + 1)
		}
		prev := sim.Time(0)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			v := h.Percentile(p)
			if v < prev || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Regression: a Row with more cells than the header used to index the
// width table out of range and panic; extra cells must render with zero
// pad width instead.
func TestTableRowWiderThanHeader(t *testing.T) {
	tb := NewTable("a", "b")
	tb.Row("x", "y", "overflow", 42)
	out := tb.String()
	if !strings.Contains(out, "overflow") || !strings.Contains(out, "42") {
		t.Errorf("extra cells lost:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Errorf("want 3 lines, got %d:\n%s", len(lines), out)
	}
}

// Empty histograms and out-of-range percentiles must behave explicitly:
// every summary statistic of an empty histogram is 0 (callers check
// Empty to distinguish "no samples" from "0µs samples"), and p is
// clamped to [min sample, max sample].
func TestHistogramEmptyAndInvalidP(t *testing.T) {
	var h Histogram
	if !h.Empty() {
		t.Error("zero-value histogram not Empty")
	}
	if h.Percentile(0) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Errorf("empty summary not 0: min=%v max=%v mean=%v", h.Percentile(0), h.Max(), h.Mean())
	}
	for _, p := range []float64{-10, 0, 50, 100, 1000} {
		if got := h.Percentile(p); got != 0 {
			t.Errorf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
	h.Add(3 * sim.Microsecond)
	h.Add(90 * sim.Microsecond)
	if h.Empty() {
		t.Error("non-empty histogram reports Empty")
	}
	if got := h.Percentile(-5); got != 3*sim.Microsecond {
		t.Errorf("Percentile(-5) = %v, want min", got)
	}
	if got := h.Percentile(0); got != 3*sim.Microsecond {
		t.Errorf("Percentile(0) = %v, want min", got)
	}
	if got := h.Percentile(150); got != 90*sim.Microsecond {
		t.Errorf("Percentile(150) = %v, want max", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("IO type", "Absolute", "Relative")
	tb.Row("COPYBACK", 16465930, 1.98)
	tb.Row("ERASE", 129317, 1.73)
	out := tb.String()
	if !strings.Contains(out, "COPYBACK") || !strings.Contains(out, "1.98") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("want 4 lines, got %d", len(lines))
	}
}

func TestHistogramAddHist(t *testing.T) {
	var a, b, merged Histogram
	for _, d := range []sim.Time{10 * sim.Microsecond, 100 * sim.Microsecond} {
		a.Add(d)
	}
	for _, d := range []sim.Time{50 * sim.Microsecond, 2 * sim.Millisecond} {
		b.Add(d)
	}
	merged.AddHist(&a)
	merged.AddHist(&b)
	if merged.count != 4 {
		t.Fatalf("count = %d, want 4", merged.count)
	}
	if merged.Percentile(0) != 10*sim.Microsecond || merged.Max() != 2*sim.Millisecond {
		t.Fatalf("min/max = %v/%v", merged.Percentile(0), merged.Max())
	}
	want := (10 + 100 + 50 + 2000) * sim.Microsecond / 4
	if merged.Mean() != want {
		t.Fatalf("mean = %v, want %v", merged.Mean(), want)
	}
	var empty Histogram
	merged.AddHist(&empty) // no-op
	if merged.count != 4 {
		t.Fatal("merging an empty histogram changed the count")
	}
}
