package main

import (
	"slices"
	"testing"

	"noftl/internal/sim"
	"noftl/internal/stats"
)

func TestNearestRank(t *testing.T) {
	sample := make([]sim.Time, 1000)
	for i := range sample {
		sample[i] = sim.Time(i + 1) // 1..1000
	}
	for _, tc := range []struct {
		p    float64
		want sim.Time
	}{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := nearestRank(sample, tc.p); got != tc.want {
			t.Errorf("p%v of 1..1000 = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := nearestRank([]sim.Time{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %d, want 7", got)
	}
	if got := nearestRank([]sim.Time(nil), 50); got != 0 {
		t.Errorf("p50 of no samples = %d, want 0", got)
	}
}

func TestHighestSupported(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestTailMean(t *testing.T) {
	lat := make([]sim.Time, 1000)
	for i := range lat {
		lat[i] = sim.Time(i+1) * sim.Microsecond
	}
	s := summarize(lat)
	// The slowest 1% of 1..1000 us are 991..1000 us: ten samples, mean 995.5.
	if got := s.tailMeanUs(99); got != 995.5 {
		t.Errorf("slowest-1%% mean = %v, want 995.5", got)
	}
	if got := s.MeanUs; got != 500.5 {
		t.Errorf("mean = %v, want 500.5", got)
	}
}

// Exact percentiles tell 8.3 ms from 9.2 ms; stats.Histogram's sqrt(2)
// buckets report both as the same value, which is why the benchmark
// keeps raw latencies.
func TestSeparatesWhatHistogramMerges(t *testing.T) {
	p95 := func(tail sim.Time) (hist, exact sim.Time) {
		// 900 fast operations, 99 at the tail value, one outlier above.
		var h stats.Histogram
		var lat []sim.Time
		add := func(n int, v sim.Time) {
			for i := 0; i < n; i++ {
				h.Add(v)
				lat = append(lat, v)
			}
		}
		add(900, sim.Millisecond)
		add(99, tail)
		add(1, 20*sim.Millisecond)
		slices.Sort(lat)
		return h.Percentile(95), nearestRank(lat, 95)
	}
	a, b := 8300*sim.Microsecond, 9200*sim.Microsecond
	histA, exactA := p95(a)
	histB, exactB := p95(b)
	if histA != histB {
		t.Fatalf("stats.Histogram now separates %v from %v (%v vs %v): update this test and the README",
			a, b, histA, histB)
	}
	if exactA != a || exactB != b {
		t.Errorf("exact p95 = %v and %v, want %v and %v", exactA, exactB, a, b)
	}
}
