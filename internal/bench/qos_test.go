package bench

import (
	"testing"

	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/telemetry"
	"noftl/internal/workload"
)

// TestQoSTagSplit is the qos example's smoke test: two TPC-B tenants on
// one priority-scheduled stack, one declared low-priority through the
// request descriptor — the per-tag p99 commit latencies must diverge
// (low above high), and the descriptors must actually reach the die
// queues: the run has no prefetchers, so every prefetch-class dispatch
// is a low-tenant command that declared its class.
func TestQoSTagSplit(t *testing.T) {
	res, err := QoS(QoSConfig{
		Params: Params{Dies: 4, DriveMB: 32, Workers: 12, Writers: 4, Frames: 128,
			Warm: sim.Second, Measure: 2 * sim.Second, Seed: 42},
		TPCB: workload.TPCBConfig{Branches: 48, AccountsPerBranch: 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.High.Committed == 0 || res.Low.Committed == 0 {
		t.Fatalf("both groups must commit: high=%d low=%d", res.High.Committed, res.Low.Committed)
	}
	if res.Result.Sched.Scheduled[sched.ClassPrefetch] == 0 {
		t.Fatal("low-priority descriptors never reached the die queues (no prefetch-class dispatches)")
	}
	ratio := res.P99Ratio()
	if ratio <= 1.25 {
		t.Fatalf("per-tag p99 commit latencies did not split: low/high = %.3f\n%s",
			ratio, res.Table())
	}
	t.Logf("p99 split low/high = %.2fx\n%s", ratio, res.Table())
}

// Under observability both tenants' JSON rows carry the shared device's
// health columns, as every other experiment's rows do.
func TestQoSRowsCarryHealth(t *testing.T) {
	res, err := QoS(QoSConfig{
		Params: Params{Dies: 4, DriveMB: 24, Workers: 8, Writers: 4, Frames: 128,
			Warm: 300 * sim.Millisecond, Measure: sim.Second, Seed: 42,
			Telemetry: &telemetry.Config{}},
		TPCB: workload.TPCBConfig{Branches: 48, AccountsPerBranch: 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Health == nil || res.Health.Wear.Spread == 0 {
		t.Fatal("the run took no health snapshot or wore its blocks evenly")
	}
	var rep JSONReport
	res.AddTo(&rep)
	if len(rep.Results) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Results))
	}
	for _, row := range rep.Results {
		if row.WearSpread == 0 {
			t.Errorf("%s row: wear_spread = 0 with a health snapshot of spread %d", row.Mode, res.Health.Wear.Spread)
		}
	}
}
