// Package stats provides the measurement utilities the experiment
// harness uses: latency histograms with percentiles and aligned table
// rendering for the paper's figures.
package stats

import (
	"fmt"
	"math"
	"strings"

	"noftl/internal/sim"
)

// Histogram is a latency histogram with logarithmic buckets (powers of
// sqrt(2) starting at 1µs) plus exact min/max/mean tracking.
type Histogram struct {
	buckets []int64
	count   int64
	sum     sim.Time
	min     sim.Time
	max     sim.Time
}

const histBuckets = 80 // covers ~1µs .. >1000s

func bucketOf(d sim.Time) int {
	if d < sim.Microsecond {
		return 0
	}
	b := int(2 * math.Log2(float64(d)/float64(sim.Microsecond)))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

func bucketUpper(i int) sim.Time {
	return sim.Time(float64(sim.Microsecond) * math.Pow(2, float64(i+1)/2))
}

// Add records one latency sample.
func (h *Histogram) Add(d sim.Time) {
	if h.buckets == nil {
		h.buckets = make([]int64, histBuckets)
		h.min = d
	}
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// AddHist merges another histogram's samples into h (per-terminal
// latency histograms merge into a workload-wide one).
func (h *Histogram) AddHist(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.buckets == nil {
		h.buckets = make([]int64, histBuckets)
		h.min = o.min
	}
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
	h.count += o.count
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Mean returns the average latency.
func (h *Histogram) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Time(h.count)
}

// Empty reports whether the histogram holds no samples. Consumers that
// serialize summary statistics should check it: an empty histogram
// reports 0 for Max/Mean/Percentile, and "no reads measured" must
// not be confused with "0µs reads".
func (h *Histogram) Empty() bool { return h.count == 0 }

// Max returns the largest sample, or 0 when the histogram is empty.
func (h *Histogram) Max() sim.Time { return h.max }

// Percentile returns an upper bound for the p-th percentile from the
// bucket boundaries; Max is exact. Out-of-range p is clamped: p <= 0
// reports the minimum sample and p >= 100 the maximum. An empty
// histogram reports 0 for every p (see Empty).
func (h *Histogram) Percentile(p float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	target := int64(math.Ceil(p / 100 * float64(h.count)))
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			up := bucketUpper(i)
			if up > h.max {
				return h.max
			}
			return up
		}
	}
	return h.max
}

// String summarises the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Percentile(50), h.Percentile(99), h.max)
}

// Table renders aligned rows for experiment output, in the style of the
// paper's tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			// A row may carry more cells than the header has columns;
			// the extra cells render with zero pad width instead of
			// indexing widths out of range.
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
