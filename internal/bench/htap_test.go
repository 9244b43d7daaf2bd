package bench

import (
	"testing"

	"noftl/internal/sim"
	"noftl/internal/workload"
)

func tinyHTAPConfig(seed int64) HTAPConfig {
	return HTAPConfig{
		Params: Params{Dies: 4, DriveMB: 24, Workers: 6, Writers: 4, Frames: 128,
			Warm: 300 * sim.Millisecond, Measure: 1 * sim.Second, Seed: seed},
		TPCB: workload.TPCBConfig{Branches: 4, AccountsPerBranch: 2000},
		TPCH: workload.TPCHConfig{ScaleFactor: 1},
	}
}

// TestHTAPAblationSmoke runs the three pool policies at tiny geometry
// and checks the per-stream structure: both streams made progress in
// every mode, the scan-resistant modes promoted pages, and only the
// prefetch mode issued (and profited from) read-ahead.
func TestHTAPAblationSmoke(t *testing.T) {
	// The pool of CI's htap run: at 128 frames beside six OLTP workers a
	// read-ahead window has no room to pay, and prefetch scans ran 0.95–1.06×
	// naive across seeds; at 192 they run 1.17–1.35×.
	cfg := tinyHTAPConfig(42)
	cfg.Params.Frames = 192
	res, err := HTAPAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for i := range res.Rows {
		row := &res.Rows[i]
		scan := row.Result.Group("scan")
		if row.Result.Committed == 0 {
			t.Fatalf("%s: OLTP stream committed nothing", row.Name)
		}
		if scan.Queries == 0 || ScanRowsPerS(&row.Result) == 0 {
			t.Fatalf("%s: analytical stream idle (q=%d rows/s=%.0f)", row.Name, scan.Queries, ScanRowsPerS(&row.Result))
		}
		if row.Result.CommitHist.Empty() || scan.QueryHist.Empty() {
			t.Fatalf("%s: empty latency histograms", row.Name)
		}
		if row.Result.Sched.TotalScheduled() == 0 {
			t.Fatalf("%s: no commands scheduled", row.Name)
		}
	}
	naive := res.Row("naive")
	if w := naive.Result.Window; w.Promotions != 0 || w.GhostHits != 0 || w.Prefetches != 0 {
		t.Fatalf("naive mode ran scan-resist/prefetch machinery: %+v", w)
	}
	for _, m := range []string{"scan-resist", "scan-resist+prefetch"} {
		if res.Row(m).Result.Window.Promotions == 0 {
			t.Fatalf("%s: segmented clock never promoted", m)
		}
	}
	if res.Row("scan-resist").Result.Window.Prefetches != 0 {
		t.Fatal("scan-resist mode issued prefetches")
	}
	pf := res.Row("scan-resist+prefetch")
	if w := pf.Result.Window; w.Prefetches == 0 || w.PrefetchHits == 0 {
		t.Fatalf("prefetch mode: prefetches=%d hits=%d", w.Prefetches, w.PrefetchHits)
	}
	// The whole point: read-ahead must raise analytical throughput over
	// the naive pool without costing OLTP throughput.
	if pfRows, naiveRows := ScanRowsPerS(&pf.Result), ScanRowsPerS(&naive.Result); pfRows <= naiveRows {
		t.Fatalf("prefetch scan throughput %.0f rows/s <= naive %.0f", pfRows, naiveRows)
	}
	if pf.Result.TPS < 0.95*naive.Result.TPS {
		t.Fatalf("prefetch OLTP TPS %.0f dropped below naive %.0f", pf.Result.TPS, naive.Result.TPS)
	}
}
