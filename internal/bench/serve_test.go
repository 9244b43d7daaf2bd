package bench

import (
	"slices"
	"testing"

	"noftl/internal/serve"
	"noftl/internal/sim"
)

func tinyServeConfig(seed int64) ServeConfig {
	return ServeConfig{
		Params: Params{Dies: 4, DriveMB: 24, Frames: 192, Writers: 4, Workers: 120,
			Warm: 300 * sim.Millisecond, Measure: 1 * sim.Second, Seed: seed},
		Rows:   2048,
		Settle: 600 * sim.Millisecond,
	}
}

// TestServeAblationSmoke runs the admission ablation at tiny geometry
// and checks the structure the experiment is about: both tenants make
// progress everywhere, the uncontrolled regime lets the batch tenant
// hurt the paying one, rate limiting paces the batch tenant to its
// contract, and the full regime visibly deprioritizes and sheds it
// while the paying tenant's tail recovers toward its uncontended
// baseline.
func TestServeAblationSmoke(t *testing.T) {
	res, err := Serve(tinyServeConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Name != "uncontended" || len(res.Rows[1:]) != 3 {
		t.Fatalf("rows = %d, want the uncontended reference and 3 regimes", len(res.Rows))
	}
	if got := res.Rows[0].Result.Group(payingTenant); got == nil || got.Committed == 0 {
		t.Fatal("uncontended reference committed nothing")
	}
	for i := range res.Rows[1:] {
		row := &res.Rows[1+i]
		for _, tr := range row.Result.Groups {
			if tr.Committed == 0 {
				t.Fatalf("%s/%s committed nothing", row.Name, tr.Name)
			}
			if adm := admission(row, tr.Name); adm.Admitted == 0 {
				t.Fatalf("%s/%s admitted nothing", row.Name, tr.Name)
			}
		}
		if row.Front.Stats().Admitted == 0 {
			t.Fatalf("%s: front admitted nothing", row.Name)
		}
	}

	none := res.Row(serve.ControlNone.String())
	rate := res.Row(serve.ControlRateLimit.String())
	full := res.Row(serve.ControlFull.String())

	// No control: nothing deprioritized or shed, and the batch tenant
	// runs way past its contracted rate.
	if st := none.Front.Stats(); st.Deprioritized != 0 || st.Shed != 0 {
		t.Fatalf("no-control regime controlled something: %+v", st)
	}
	if b := none.Result.Group(batchTenant); b.TPS < 2*batchRate {
		t.Fatalf("no-control batch TPS %.0f: load too weak to demonstrate anything (rate %.0f)",
			b.TPS, batchRate)
	}

	// Rate limit: batch paced to its contract (±20%), never shed.
	if b := rate.Result.Group(batchTenant); b.TPS > 1.2*batchRate {
		t.Fatalf("rate-limit batch TPS %.0f over contract %.0f", b.TPS, batchRate)
	}
	if st := rate.Front.Stats(); st.Shed != 0 {
		t.Fatalf("rate-limit regime shed requests: %+v", st)
	}

	// Full control: the batch tenant burns its budget, gets deprioritized
	// and shed; the paying tenant's p99 lands within 1.2x of uncontended.
	fb := admission(full, batchTenant)
	if fb.Deprioritized == 0 || fb.Shed == 0 {
		t.Fatalf("full regime never punished the breaching tenant: %+v", fb)
	}
	if fb.State == serve.Healthy {
		t.Fatalf("breaching tenant ended healthy: %+v", fb)
	}
	if fp := admission(full, payingTenant); fp.Shed != 0 {
		t.Fatalf("compliant tenant was shed: %+v", fp)
	}
	if ratio := res.Ratio(serve.ControlFull.String(), "uncontended", PayingCommitP99); ratio == 0 || ratio > 1.2 {
		t.Fatalf("paying p99 protection ratio %.2f under full control, want (0, 1.2]", ratio)
	}
}

// TestServeTelemetryExport: the serve.* metrics reach the registry and
// the sampled series, with the batch tenant's shed counter nonzero in
// the full regime.
func TestServeTelemetryExport(t *testing.T) {
	cfg := tinyServeConfig(9).withDefaults()
	res, err := cfg.runVariants("serve", "kv", cfg.variants()[3:]) // rate-limit+shed
	if err != nil {
		t.Fatal(err)
	}
	row := &res.Rows[0]
	if row.Tel == nil {
		t.Fatal("no telemetry attached")
	}
	names := row.Tel.Reg.Names()
	for _, want := range []string{
		"serve.admitted", "serve.shed", "serve.deprioritized",
		"serve.active_sessions", "serve.tenant.batch_shed",
		"serve.tenant.batch_state", "serve.tenant.paying_admitted",
		"serve.tenant.paying_commit_p99_us",
	} {
		if !slices.Contains(names, want) {
			t.Fatalf("registry missing %s: %v", want, names)
		}
	}
	// The breaching tenant's shed counter must be visibly nonzero.
	shed := row.Tel.Series().Column("serve.tenant.batch_shed")
	if len(shed) == 0 || shed[len(shed)-1] <= 0 {
		t.Fatalf("batch shed counter sampled as %v, want a last value > 0", shed)
	}
}

// admission is the serving front's whole-run accounting for one tenant
// of a row.
func admission(row *Row, tenant string) serve.TenantStats {
	adm, _ := row.Front.TenantStats(tenant)
	return adm
}
