package bench

import (
	"testing"

	"noftl/internal/sim"
	"noftl/internal/system"
)

// TestDeltaAblationWritesFewerBytes pins the acceptance criterion of
// the in-place-appends issue: on TPC-B, delta-append NoFTL must program
// fewer flash bytes per committed transaction than full-page NoFTL, and
// the new counters must show the machinery actually ran.
func TestDeltaAblationWritesFewerBytes(t *testing.T) {
	res, err := DeltaAblation(DeltaConfig{
		Workload: "tpcb",
		Params: Params{Dies: 4, DriveMB: 64, Workers: 8, Writers: 4, Frames: 256,
			Warm: 500 * sim.Millisecond, Measure: 2 * sim.Second, Seed: 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	full := res.Row(string(system.StackNoFTL))
	dl := res.Row(string(system.StackNoFTLDelta))
	faster := res.Row(string(system.StackFaster))
	if full == nil || dl == nil || faster == nil {
		t.Fatalf("missing stacks in %+v", res.Rows)
	}
	for _, row := range res.Rows {
		if row.Result.Committed == 0 {
			t.Fatalf("%s committed no transactions", row.Stack)
		}
	}
	if dl.Result.FTL.DeltaWrites == 0 {
		t.Fatal("delta stack performed no delta writes")
	}
	if dl.Result.FTL.Folds == 0 {
		t.Fatal("delta stack performed no folds")
	}
	if full.Result.FTL.DeltaWrites != 0 {
		t.Fatal("full-page stack performed delta writes")
	}
	ratio := res.Ratio(string(system.StackNoFTLDelta), string(system.StackNoFTL), (*RunResult).BytesPerTx)
	if ratio <= 0 || ratio >= 1 {
		t.Fatalf("delta path programs %.2fx the flash bytes per tx of full pages (want < 1.0); "+
			"full %.0f B/tx, delta %.0f B/tx", ratio, full.Result.BytesPerTx(), dl.Result.BytesPerTx())
	}
	t.Logf("bytes/tx: full=%.0f delta=%.0f (%.0f%%), faster=%.0f; TPS full=%.0f delta=%.0f",
		full.Result.BytesPerTx(), dl.Result.BytesPerTx(), 100*ratio, faster.Result.BytesPerTx(),
		full.Result.TPS, dl.Result.TPS)
}
