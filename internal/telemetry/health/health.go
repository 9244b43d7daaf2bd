// Package health is the device-health schema: structured snapshots
// (per-die wear heatmaps and erase histograms, wear-spread percentiles,
// per-region GC efficiency and write-amplification decomposition,
// occupancy and free-block timelines), the wear math derived from the
// heatmaps, and the choice of timeline columns.
//
// Health knows nothing of nand/flash/ftl/region/sched: System.Health
// (package system) fills a snapshot from each layer's counters and
// calls Finalize. Everything is driven by the simulated clock, so a
// fixed-seed run produces byte-identical snapshot JSON.
package health

import (
	"sort"

	"noftl/internal/sim"
	"noftl/internal/telemetry"
)

// timelines names the registry metrics copied from the sampled series
// into Snapshot.Timelines. Unregistered names are skipped.
var timelines = []string{
	"noftl.free_blocks", "noftl.live_pages",
	"commit.tps", "commit.p99_us", "commit.deadline_misses",
	"health.wear_spread", "health.occupancy",
}

// Snapshot is the health snapshot schema (see DESIGN.md "Device
// health"). All fields are plain structs and slices so JSON
// marshalling is deterministic.
type Snapshot struct {
	// TNs is the simulated time the snapshot was taken at.
	TNs sim.Time `json:"t_ns"`
	// Device describes the geometry the heatmaps index into.
	Device DeviceInfo `json:"device"`
	// Wear is the device-wide wear distribution over non-bad blocks.
	Wear WearHealth `json:"wear"`
	// Dies holds one heatmap row + histogram + load view per die.
	Dies []DieHealth `json:"dies"`
	// Regions holds per-region occupancy and GC efficiency (region
	// stacks only).
	Regions []RegionHealth `json:"regions,omitempty"`
	// Timelines are selected series columns (one value per sampler
	// tick) for trend views.
	Timelines []Timeline `json:"timelines,omitempty"`
}

// DeviceInfo pins the geometry a snapshot's heatmaps index into.
type DeviceInfo struct {
	Dies          int `json:"dies"`
	PlanesPerDie  int `json:"planes_per_die"`
	BlocksPerDie  int `json:"blocks_per_die"`
	PagesPerBlock int `json:"pages_per_block"`
	PageSize      int `json:"page_size"`
}

// DieHealth is one die's wear heatmap row plus its load view.
type DieHealth struct {
	Die int `json:"die"`
	// Blocks is the erase count per physical block (heatmap row);
	// retired blocks carry -1.
	Blocks []int `json:"blocks"`
	// Hist is the erase-count histogram over non-bad blocks
	// (cumulative-free buckets: count of blocks with erases <= le,
	// exclusive of lower buckets).
	Hist      []HistBucket `json:"hist"`
	EraseMin  int          `json:"erase_min"`
	EraseMax  int          `json:"erase_max"`
	EraseMean float64      `json:"erase_mean"`
	BadBlocks int          `json:"bad_blocks"`
	// BusyNs is the die's cumulative service time (flash timing model).
	BusyNs sim.Time `json:"busy_ns"`
	// QueueDepth is the scheduler's current queue depth for the die.
	QueueDepth int `json:"queue_depth"`
}

// HistBucket is one erase-count histogram bucket: Count blocks fell in
// (previous Le, Le].
type HistBucket struct {
	Le    int `json:"le"`
	Count int `json:"count"`
}

// WearHealth is the device-wide wear distribution.
type WearHealth struct {
	Min    int     `json:"min"`
	Max    int     `json:"max"`
	Mean   float64 `json:"mean"`
	Spread int     `json:"spread"`
	// P50/P90/P99 are erase-count percentiles over non-bad blocks.
	P50         int `json:"p50"`
	P90         int `json:"p90"`
	P99         int `json:"p99"`
	TotalBlocks int `json:"total_blocks"`
	BadBlocks   int `json:"bad_blocks"`
}

// GCHealth decomposes a region's garbage-collection efficiency.
type GCHealth struct {
	Erases int64 `json:"erases"`
	// CopyPages counts pages relocated by GC (copyback + bus copies).
	CopyPages int64 `json:"copy_pages"`
	// ValidCopyRatio is CopyPages / (Erases * pages-per-block): the
	// fraction of each reclaimed block that was still live. Lower is
	// better — 0 means blocks are fully dead when reclaimed.
	ValidCopyRatio float64 `json:"valid_copy_ratio"`
	// WA is the write-amplification factor (device writes / host writes).
	WA float64 `json:"wa"`
	// Byte decomposition of the programs behind WA.
	HostBytes int64 `json:"host_bytes"`
	// DeltaBytes are partial-page delta appends (counted in HostBytes'
	// numerator separately because they cost bus bytes, not pages).
	DeltaBytes int64 `json:"delta_bytes,omitempty"`
	GCBytes    int64 `json:"gc_bytes"`
	WearBytes  int64 `json:"wear_bytes,omitempty"`
	FoldBytes  int64 `json:"fold_bytes,omitempty"`
}

// RegionHealth is one region's occupancy and GC view.
type RegionHealth struct {
	Name          string   `json:"name"`
	Mapping       string   `json:"mapping"`
	Dies          int      `json:"dies"`
	LivePages     int64    `json:"live_pages"`
	CapacityPages int64    `json:"capacity_pages"`
	Occupancy     float64  `json:"occupancy"`
	FreeBlocks    int64    `json:"free_blocks"`
	EraseMin      int      `json:"erase_min"`
	EraseMax      int      `json:"erase_max"`
	EraseAvg      float64  `json:"erase_avg"`
	GC            GCHealth `json:"gc"`
}

// Timeline is one metric's sampled values (column of the series).
type Timeline struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Finalize completes a snapshot whose device, die and region rows are
// filled: it derives the wear section and the per-die histograms, then
// copies the timeline columns out of series (nil: no timelines).
func (s *Snapshot) Finalize(series *telemetry.Series) {
	s.deriveWear()
	if series == nil {
		return
	}
	for _, n := range timelines {
		if col := series.Column(n); col != nil {
			s.Timelines = append(s.Timelines, Timeline{Name: n, Values: col})
		}
	}
}

// deriveWear derives the device-wide wear section and the per-die
// histograms from the per-die heatmap rows. The histograms share
// power-of-two buckets derived from the observed maximum (deterministic
// for a fixed run).
func (s *Snapshot) deriveWear() {
	var all []int
	for i := range s.Dies {
		d := &s.Dies[i]
		for _, e := range d.Blocks {
			if e >= 0 {
				all = append(all, e)
			}
		}
		s.Wear.BadBlocks += d.BadBlocks
	}
	s.Wear.TotalBlocks = len(all)
	if len(all) == 0 {
		for i := range s.Dies {
			s.Dies[i].Hist = []HistBucket{}
		}
		return
	}
	sort.Ints(all)
	s.Wear.Min = all[0]
	s.Wear.Max = all[len(all)-1]
	s.Wear.Spread = s.Wear.Max - s.Wear.Min
	var sum int64
	for _, e := range all {
		sum += int64(e)
	}
	s.Wear.Mean = float64(sum) / float64(len(all))
	pct := func(p float64) int {
		i := int(p / 100 * float64(len(all)-1))
		return all[i]
	}
	s.Wear.P50, s.Wear.P90, s.Wear.P99 = pct(50), pct(90), pct(99)

	buckets := powerBuckets(s.Wear.Max)
	for i := range s.Dies {
		s.Dies[i].Hist = histogram(s.Dies[i].Blocks, buckets)
	}
}

// powerBuckets derives deterministic power-of-two bucket bounds
// covering max: 0, 1, 2, 4, ... >= max.
func powerBuckets(max int) []int {
	out := []int{0, 1}
	for b := 2; ; b *= 2 {
		out = append(out, b)
		if b >= max {
			return out
		}
	}
}

// histogram buckets the non-bad erase counts of one heatmap row; the
// last bound covers the device-wide maximum.
func histogram(blocks, bounds []int) []HistBucket {
	out := make([]HistBucket, len(bounds))
	for i, le := range bounds {
		out[i].Le = le
	}
	for _, e := range blocks {
		if e < 0 {
			continue
		}
		for i, le := range bounds {
			if e <= le {
				out[i].Count++
				break
			}
		}
	}
	return out
}
