package bench

import (
	"strings"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/region"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// smallTPS keeps DES windows short for unit tests.
func smallTPS(workers, writers int, assoc storage.WriterAssociation) TPSConfig {
	return TPSConfig{
		Workers:     workers,
		Writers:     writers,
		Association: assoc,
		Warm:        200 * sim.Millisecond,
		Measure:     sim.Second,
		Seed:        1,
	}
}

// TestRegionsStacksRunTPS drives both regions-ablation stacks through a
// short DES measurement: the WAL lives on flash either way (window or
// native log region) and both must push transactions.
func TestRegionsStacksRunTPS(t *testing.T) {
	for _, stack := range []system.Stack{system.StackNoFTLSingle, system.StackNoFTLRegions} {
		devCfg := flash.EmulatorConfig(4, 48, nand.SLC)
		sys, err := system.New(system.Config{Stack: stack, Device: &devCfg, Frames: 128})
		if err != nil {
			t.Fatalf("%s: %v", stack, err)
		}
		wl := workload.NewTPCB(workload.TPCBConfig{Branches: 4, AccountsPerBranch: 200})
		r, err := RunTPS(sys, wl, smallTPS(4, 4, storage.AssocDieWise))
		if err != nil {
			t.Fatalf("%s: %v", stack, err)
		}
		if r.TPS <= 0 || r.Committed <= 0 {
			t.Fatalf("%s: TPS = %v committed = %d", stack, r.TPS, r.Committed)
		}
		if stack == system.StackNoFTLRegions {
			if sys.Regions == nil {
				t.Fatal("regions stack has no manager")
			}
			for _, rs := range sys.Regions.RegionStats() {
				if rs.Mapping == region.SeqMapped && rs.FTL.HostWrites == 0 {
					t.Error("log region saw no WAL appends")
				}
			}
		}
	}
}

func TestRunTPSProducesThroughput(t *testing.T) {
	devCfg := flash.EmulatorConfig(4, 48, nand.SLC)
	sys, err := system.New(system.Config{Stack: system.StackNoFTL, Device: &devCfg, Frames: 128})
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.NewTPCB(workload.TPCBConfig{Branches: 4, AccountsPerBranch: 200})
	r, err := RunTPS(sys, wl, smallTPS(4, 4, storage.AssocDieWise))
	if err != nil {
		t.Fatal(err)
	}
	if r.TPS <= 0 || r.Committed <= 0 {
		t.Fatalf("TPS = %v committed = %d", r.TPS, r.Committed)
	}
	if r.Device.Programs == 0 {
		t.Error("no flash programs during measurement")
	}
}

func TestFigure3SmokeShape(t *testing.T) {
	res, err := Figure3(Fig3Config{
		TPCC:         workload.TPCCConfig{Warehouses: 1, CustomersPerDistrict: 60, Items: 200, InitialOrdersPerDistrict: 20},
		TPCB:         workload.TPCBConfig{Branches: 8, AccountsPerBranch: 2000},
		TPCE:         workload.TPCEConfig{Customers: 200, Securities: 200},
		Transactions: 2000,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.FasterCopybacks == 0 && row.FasterErases == 0 {
			t.Errorf("%s: FASTer shows no GC at all", row.Workload)
		}
		// The paper's shape: FASTer does substantially more GC work.
		if row.RelativeCopyback <= 1.0 && row.FasterCopybacks > 0 {
			t.Errorf("%s: copyback ratio %.2f <= 1", row.Workload, row.RelativeCopyback)
		}
		if row.RelativeErase <= 1.0 && row.FasterErases > 0 {
			t.Errorf("%s: erase ratio %.2f <= 1", row.Workload, row.RelativeErase)
		}
	}
	tbl := res.Table()
	if !strings.Contains(tbl, "COPYBACK") || !strings.Contains(tbl, "ERASE") {
		t.Errorf("table:\n%s", tbl)
	}
	if len(res.Longevity()) != 3 {
		t.Error("longevity rows missing")
	}
}

func TestFigure4SmokeShape(t *testing.T) {
	res, err := Figure4(Fig4Config{
		Workload: "tpcb",
		Dies:     []int{1, 4},
		Workers:  8,
		DriveMB:  48,
		Frames:   128,
		Warm:     200 * sim.Millisecond,
		Measure:  sim.Second,
		// 8,000 accounts exceed the 128 frames, as in the paper's regime.
		// A population the pool caches runs ~240,000 TPS on the
		// zero-latency memory log and wraps it between two 100 ms
		// checkpointer ticks (nothing applies back-pressure).
		TPCB: workload.TPCBConfig{Branches: 4, AccountsPerBranch: 2000},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Global.Y) != 2 || len(res.DieWise.Y) != 2 {
		t.Fatalf("points: %+v", res.Points)
	}
	for i, tps := range res.Global.Y {
		if tps <= 0 || res.DieWise.Y[i] <= 0 {
			t.Fatalf("zero TPS at point %d", i)
		}
	}
	// More dies must help both strategies.
	if res.DieWise.Y[1] <= res.DieWise.Y[0] {
		t.Errorf("die-wise TPS did not scale with dies: %v", res.DieWise.Y)
	}
	// The db-writers write back at every point, and the table prints
	// each association's split.
	for _, p := range res.Points {
		if p.AsyncWrites <= 0 {
			t.Errorf("%d dies, %v writers: no db-writer write-back: %+v", p.Dies, p.Association, p)
		}
	}
	table := res.Table()
	for _, col := range []string{"speedup", "global sync", "global async", "die-wise sync", "die-wise async"} {
		if !strings.Contains(table, col) {
			t.Errorf("table has no %q column:\n%s", col, table)
		}
	}
}

func TestValidateSmoke(t *testing.T) {
	res, err := Validate(ValidateConfig{Ops: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 { // 3 cells × 2 die counts × 2 patterns
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Queue-depth-1 latencies must match the analytic model tightly.
	if res.MaxErrorPct() > 2.0 {
		t.Errorf("max model error %.2f%%\n%s", res.MaxErrorPct(), res.Table())
	}
	// Parallel scaling: 8 dies ≥ 4x the 1-die IOPS.
	if res.ScalingIOPS[8] < 4*res.ScalingIOPS[1] {
		t.Errorf("scaling: %v", res.ScalingIOPS)
	}
}

// TestLatencySmokeShape also pins that Latency returns: NoFTL's run ends
// only when its writer stops the maintenance workers, whose wear sweep
// would otherwise keep the kernel busy forever.
func TestLatencySmokeShape(t *testing.T) {
	res, err := Latency(LatencyConfig{Ops: 4000, DriveMB: 24, Dies: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	fh := res.HistOf(system.StackFaster)
	nh := res.HistOf(system.StackNoFTL)
	if len(res.Rows) != 2 || fh == nil || nh == nil {
		t.Fatalf("rows: %+v", res.Rows)
	}
	if nh.Percentile(99) >= fh.Percentile(99) {
		t.Errorf("noftl p99 %v not below faster's %v", nh.Percentile(99), fh.Percentile(99))
	}
	// The paper's motivation: the FTL path shows state-dependent
	// outliers far above its average; NoFTL's tail stays much tighter.
	if fh.Max() < 4*fh.Mean() {
		t.Errorf("faster shows no outliers: mean=%v max=%v", fh.Mean(), fh.Max())
	}
	if nh.Max() > fh.Max() {
		t.Errorf("noftl tail (%v) worse than faster (%v)", nh.Max(), fh.Max())
	}
	if !strings.Contains(res.Table(), "p99") {
		t.Error("table missing")
	}
}

func TestAblationsSmoke(t *testing.T) {
	gp, err := AblationGCPolicy(1)
	if err != nil || len(gp.Points) != 3 {
		t.Fatalf("gc policy: %v %+v", err, gp)
	}
	cmt, err := AblationDFTLCMT(1)
	if err != nil || len(cmt.Points) < 4 {
		t.Fatalf("cmt: %v", err)
	}
	// Map I/O must shrink monotonically-ish with CMT size.
	first := cmt.Points[0].MapIO
	last := cmt.Points[len(cmt.Points)-1].MapIO
	if last >= first {
		t.Errorf("CMT sweep: mapIO %d -> %d (no improvement)", first, last)
	}
	fl, err := AblationFasterLog(1)
	if err != nil || len(fl.Points) < 2 {
		t.Fatalf("faster log: %v", err)
	}
	op, err := AblationOverProvision(1)
	if err != nil || len(op.Points) != 4 {
		t.Fatalf("op: %v", err)
	}
	// More over-provisioning means less write amplification.
	if op.Points[len(op.Points)-1].WA >= op.Points[0].WA {
		t.Errorf("OP sweep WA did not improve: %+v", op.Points)
	}
	if !strings.Contains(op.Table(), "WA") {
		t.Error("table missing")
	}
}

func TestHeadlineSmokeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("headline comparison runs four full systems")
	}
	res, err := Headline(HeadlineConfig{
		Workload: "tpcb",
		Params: Params{Dies: 4, DriveMB: 48, Workers: 8, Writers: 4, Frames: 128,
			Warm: 200 * sim.Millisecond, Measure: 2 * sim.Second, Seed: 7},
		TPCB: workload.TPCBConfig{Branches: 8, AccountsPerBranch: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Result.TPS <= 0 {
			t.Fatalf("%s: zero TPS", row.Stack)
		}
	}
	// The paper's ordering: NoFTL beats the hybrid FTL stack; the
	// thrashing-CMT DFTL trails pure page mapping.
	if sp := res.Ratio("noftl", "faster", TPS); sp <= 1.0 {
		t.Errorf("NoFTL/FASTer speedup = %.2f, want > 1\n%s", sp, res.Table())
	}
	if sl := res.Ratio("pagemap", "dftl", TPS); sl <= 1.0 {
		t.Errorf("pagemap/DFTL = %.2f, want > 1\n%s", sl, res.Table())
	}
	if !strings.Contains(res.Table(), "noftl") {
		t.Error("table missing")
	}
}
