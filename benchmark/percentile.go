package main

import (
	"math"
	"slices"

	"noftl/internal/sim"
)

// nearestRank returns the exact p-th percentile (0 < p <= 100) of an
// ascending sample by the nearest-rank rule: the smallest value with at
// least p% of the sample at or below it. No interpolation and no
// bucketing, so two runs of the same simulated work agree to the last
// digit and a 5% shift is visible (stats.Histogram quantises in 41%
// steps).
func nearestRank[T any](sorted []T, p float64) T {
	var zero T
	if len(sorted) == 0 {
		return zero
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of percentile p in n samples. The
// epsilon keeps products like 99.9*1000/100 from rounding up a rank.
func rankOf(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// tailLadder is the percentiles a latency report may quote, ascending.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// highestSupported returns the highest percentile of tailLadder that
// still has at least ten samples beyond it in a sample of n — the
// highest tail a report may quote without resting on a handful of
// outliers — and 0 when even the median has fewer.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n-rankOf(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// latencySummary describes raw simulated latencies exactly: the mean,
// and nearest-rank percentiles of the sorted sample.
type latencySummary struct {
	sorted []sim.Time
	MeanUs float64
}

func summarize(lat []sim.Time) latencySummary {
	s := latencySummary{sorted: slices.Clone(lat), MeanUs: meanUs(lat)}
	slices.Sort(s.sorted)
	return s
}

// meanUs is the mean of a sample in microseconds, 0 when it is empty.
func meanUs(lat []sim.Time) float64 {
	if len(lat) == 0 {
		return 0
	}
	var sum sim.Time
	for _, l := range lat {
		sum += l
	}
	return float64(sum) / float64(sim.Microsecond) / float64(len(lat))
}

// us is the p-th percentile in microseconds.
func (s latencySummary) us(p float64) float64 {
	return float64(nearestRank(s.sorted, p)) / float64(sim.Microsecond)
}

// tailMeanUs is the mean, in microseconds, of the samples beyond the
// p-th percentile: the average of the slowest (100-p)%.
func (s latencySummary) tailMeanUs(p float64) float64 {
	return meanUs(s.sorted[rankOf(len(s.sorted), p):])
}

// median returns the nearest-rank median of an unsorted float sample.
func median(v []float64) float64 {
	sorted := slices.Clone(v)
	slices.Sort(sorted)
	return nearestRank(sorted, 50)
}
