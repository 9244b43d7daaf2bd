package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"noftl/internal/telemetry"
	"noftl/internal/telemetry/health"
)

func tinyHealthConfig(seed int64) SchedConfig {
	cfg := tinySchedConfig(seed)
	cfg.Modes = []string{"bg-gc+prio"}
	cfg.Telemetry = &telemetry.Config{} // health carries timelines only from a sampler
	return cfg
}

// TestHealthSnapshotStructure drives one observed regime and
// checks the snapshot's shape: a full heatmap row per die, histograms
// covering exactly the non-bad blocks, consistent device-wide wear
// percentiles, both regions with GC accounting, and the timelines
// tracking the sampler.
func TestHealthSnapshotStructure(t *testing.T) {
	res, err := SchedAblation(tinyHealthConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	row := &res.Rows[0]
	h := row.Health
	if h == nil {
		t.Fatal("health snapshot missing from the row")
	}
	if h.TNs == 0 {
		t.Fatal("snapshot not stamped with sim time")
	}
	if len(h.Dies) != h.Device.Dies || h.Device.Dies != 4 {
		t.Fatalf("dies = %d, device says %d, want 4", len(h.Dies), h.Device.Dies)
	}
	good := 0
	for _, d := range h.Dies {
		if len(d.Blocks) != h.Device.BlocksPerDie {
			t.Fatalf("die %d heatmap has %d blocks, geometry says %d",
				d.Die, len(d.Blocks), h.Device.BlocksPerDie)
		}
		n := 0
		for _, b := range d.Hist {
			n += b.Count
		}
		if want := len(d.Blocks) - d.BadBlocks; n != want {
			t.Fatalf("die %d histogram counts %d blocks, want %d", d.Die, n, want)
		}
		good += n
		if d.EraseMax < d.EraseMin {
			t.Fatalf("die %d erase range inverted: [%d,%d]", d.Die, d.EraseMin, d.EraseMax)
		}
	}
	w := h.Wear
	if w.TotalBlocks != good {
		t.Fatalf("wear covers %d blocks, heatmaps hold %d", w.TotalBlocks, good)
	}
	if w.Spread != w.Max-w.Min || w.Max == 0 {
		t.Fatalf("wear distribution wrong: %+v", w)
	}
	if w.P50 > w.P90 || w.P90 > w.P99 || w.P99 > w.Max || w.P50 < w.Min {
		t.Fatalf("wear percentiles not ordered: %+v", w)
	}

	// Region-managed stack: log + data regions, GC efficiency on the
	// page-mapped one (the run holds it at GC pressure).
	if len(h.Regions) != 2 {
		t.Fatalf("regions = %d, want log+data", len(h.Regions))
	}
	var data *health.RegionHealth
	for i := range h.Regions {
		if h.Regions[i].Mapping == "page" {
			data = &h.Regions[i]
		}
	}
	if data == nil {
		t.Fatalf("no page-mapped region in %+v", h.Regions)
	}
	if data.Occupancy <= 0.5 || data.Occupancy > 1 {
		t.Fatalf("data occupancy = %.2f, want GC-pressure regime", data.Occupancy)
	}
	if data.GC.Erases == 0 || data.GC.CopyPages == 0 {
		t.Fatalf("data region saw no GC: %+v", data.GC)
	}
	if data.GC.ValidCopyRatio <= 0 || data.GC.ValidCopyRatio >= 1 {
		t.Fatalf("valid-copy ratio = %.3f, want (0,1)", data.GC.ValidCopyRatio)
	}
	if data.GC.WA < 1 || data.GC.HostBytes == 0 || data.GC.GCBytes == 0 {
		t.Fatalf("WA decomposition wrong: %+v", data.GC)
	}

	// Timelines: every configured-and-registered column present, dense,
	// and rectangular with the sampled series.
	if len(h.Timelines) == 0 {
		t.Fatal("no timelines in the snapshot")
	}
	samples := len(row.Tel.Series().Samples)
	if samples < 5 {
		t.Fatalf("series has %d samples, want dense sampling", samples)
	}
	names := map[string]bool{}
	for _, tl := range h.Timelines {
		names[tl.Name] = true
		if len(tl.Values) != samples {
			t.Fatalf("timeline %s has %d points, series has %d", tl.Name, len(tl.Values), samples)
		}
	}
	for _, want := range []string{"noftl.free_blocks", "health.wear_spread", "health.occupancy", "commit.tps"} {
		if !names[want] {
			t.Fatalf("timeline %q missing (got %v)", want, names)
		}
	}
}

// TestHealthSnapshotDeterministic runs the observed regime twice
// with one seed and expects byte-identical snapshot JSON — the
// acceptance bar for every health export (the CLI's health.json uses
// the same encoder).
func TestHealthSnapshotDeterministic(t *testing.T) {
	export := func() []byte {
		res, err := SchedAblation(tinyHealthConfig(7))
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", " ")
		if err := enc.Encode(res.Rows[0].Health); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := export(), export()
	if len(a) == 0 {
		t.Fatal("empty snapshot export")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("health snapshot JSON diverged between identical runs")
	}
}
