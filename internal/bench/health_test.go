package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/telemetry"
	"noftl/internal/telemetry/health"
	"noftl/internal/workload"
)

func tinyHealthConfig(seed int64) SchedConfig {
	cfg := tinySchedConfig(seed)
	cfg.Modes = []string{"bg-gc+prio+tagged"}
	cfg.Telemetry = &telemetry.Config{SampleEvery: 25 * sim.Millisecond}
	cfg.Health = &health.Config{Rules: health.DefaultRules(64, 4, 50_000, 0.05)}
	return cfg
}

// TestHealthSnapshotStructure drives one health-enabled regime and
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
	if samples < 20 {
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

// TestHealthSnapshotDeterministic runs the health-enabled regime twice
// with one seed and expects byte-identical snapshot JSON — the
// acceptance bar for every health export (the CLI's -health-out and
// the live /health page use the same encoder).
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

// wearPressureAlerts runs the seeded wear-pressure scenario: a small
// region-managed device held at GC pressure, with a tight wear-spread
// ceiling and every commit stamped with an aggressive deadline against
// a 1% miss budget. Both rules must trip during the run.
func wearPressureAlerts(t *testing.T, seed int64) []telemetry.Alert {
	t.Helper()
	devCfg := flash.EmulatorConfig(4, 24, nand.SLC)
	sys, err := system.New(system.Config{Device: &devCfg, Frames: 128},
		system.WithPriorityScheduler(), system.WithBackgroundGC(),
		system.WithTelemetry(telemetry.Config{SampleEvery: 25 * sim.Millisecond}),
		system.WithHealth(health.Config{Rules: []health.Rule{
			{Name: "wear_spread", Kind: health.RuleAbove,
				Metric: "health.wear_spread", Threshold: 2, For: 2},
			{Name: "deadline_burn", Kind: health.RuleBurnRate,
				Budget: 0.01, Severity: "page"},
		}}))
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.NewTPCB(deriveTPCB(sys.NoFTL.LogicalPages(), 0.68))
	_, err = RunTPS(sys, wl, TPSConfig{
		Workers:     8,
		Writers:     4,
		Association: storage.AssocDieWise,
		Warm:        200 * sim.Millisecond,
		Measure:     1 * sim.Second,
		Seed:        seed,
		Tagged:      true,
		// Deadlines far below the commit path's latency floor: nearly
		// every commit misses, torching the 1% budget.
		DeadlineAfter: func(id int) sim.Time { return 20 * sim.Microsecond },
	})
	if err != nil {
		t.Fatal(err)
	}
	alerts := sys.Health.Alerts()
	if err := sys.Health.Close(); err != nil {
		t.Fatal(err)
	}
	return alerts
}

// TestHealthAlertsFireDeterministically is the ISSUE's acceptance
// scenario: under seeded wear pressure the wear-spread and
// deadline-burn rules fire, each transition lands exactly on a sampler
// tick, and a second run of the same seed reproduces the alert log —
// timestamps included — byte for byte.
func TestHealthAlertsFireDeterministically(t *testing.T) {
	alerts := wearPressureAlerts(t, 99)
	fired := map[string]sim.Time{}
	for _, a := range alerts {
		if a.TNs%(25*sim.Millisecond) != 0 {
			t.Fatalf("alert %s at %v is off the sampler grid", a.Rule, a.TNs)
		}
		if a.State == "firing" {
			if _, seen := fired[a.Rule]; !seen {
				fired[a.Rule] = a.TNs
			}
		}
	}
	for _, rule := range []string{"wear_spread", "deadline_burn"} {
		at, ok := fired[rule]
		if !ok {
			t.Fatalf("%s never fired under wear pressure; alerts: %+v", rule, alerts)
		}
		if at <= 0 {
			t.Fatalf("%s fired at t=%v", rule, at)
		}
	}

	again := wearPressureAlerts(t, 99)
	if !reflect.DeepEqual(alerts, again) {
		t.Fatalf("alert log diverged between identical runs:\n%+v\n%+v", alerts, again)
	}
}

// TestLiveMonitorServesMetrics is the -monitor-addr smoke test: a
// system built with a live monitor address serves Prometheus text on
// /metrics, the snapshot on /health and the alert log on /alerts while
// the bench harness drives it, and the listener releases on Close.
func TestLiveMonitorServesMetrics(t *testing.T) {
	devCfg := flash.EmulatorConfig(4, 24, nand.SLC)
	sys, err := system.New(system.Config{Device: &devCfg, Frames: 128},
		system.WithPriorityScheduler(), system.WithBackgroundGC(),
		system.WithTelemetry(telemetry.Config{SampleEvery: 25 * sim.Millisecond}),
		system.WithHealth(health.Config{
			MonitorAddr: "127.0.0.1:0",
			Rules:       health.DefaultRules(64, 4, 50_000, 0.05),
		}))
	if err != nil {
		t.Fatal(err)
	}
	addr := sys.Health.Addr()
	if addr == "" {
		t.Fatal("monitor not serving despite MonitorAddr")
	}

	wl := workload.NewTPCB(deriveTPCB(sys.NoFTL.LogicalPages(), 0.68))
	if _, err := RunTPS(sys, wl, TPSConfig{
		Workers:     8,
		Writers:     4,
		Association: storage.AssocDieWise,
		Warm:        200 * sim.Millisecond,
		Measure:     500 * sim.Millisecond,
		Seed:        3,
	}); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (string, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	for _, want := range []string{"noftl_sim_time_seconds", "noftl_flash_erases", "noftl_health_wear_spread"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, metrics)
		}
	}

	healthPage, ctype := get("/health")
	if ctype != "application/json" {
		t.Fatalf("/health content type %q", ctype)
	}
	var snap health.Snapshot
	if err := json.Unmarshal([]byte(healthPage), &snap); err != nil {
		t.Fatalf("/health is not snapshot JSON: %v", err)
	}
	if len(snap.Dies) != 4 || snap.TNs == 0 {
		t.Fatalf("/health snapshot wrong: t=%v dies=%d", snap.TNs, len(snap.Dies))
	}

	alertsPage, _ := get("/alerts")
	var alerts []telemetry.Alert
	if err := json.Unmarshal([]byte(alertsPage), &alerts); err != nil {
		t.Fatalf("/alerts is not alert JSON: %v", err)
	}

	if err := sys.Health.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("monitor still serving after Close")
	}
}
