package bench

import (
	"errors"
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

// TestRunTPSProducesThroughput runs TPC-B on a 96 MB device: its one
// sim-second of history fits, unlike the 48 MB device's (see
// TestRunTPSFillsA48MBDevice).
func TestRunTPSProducesThroughput(t *testing.T) {
	r, err := smallTPCBRun(t, 96, sim.Second)
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

// TestRunTPSFillsA48MBDevice pins a sizing defect: history rows grow
// without bound, so a long enough run of the cached TPC-B population
// fills a 48 MB device's data volume. Its memory log takes a page per
// commit flush, and the engine's checkpointer, woken by the log, keeps
// the commits from parking: the device fills within one simulated
// second. When history stops growing without bound (or the device
// grows), this fails; move the throughput test back to 48 MB then.
func TestRunTPSFillsA48MBDevice(t *testing.T) {
	if _, err := smallTPCBRun(t, 48, 8*sim.Second); !errors.Is(err, storage.ErrVolumeFull) {
		t.Fatalf("run on 48 MB = %v, want %v", err, storage.ErrVolumeFull)
	}
}

func smallTPCBRun(t *testing.T, mb int, measure sim.Time) (*RunResult, error) {
	t.Helper()
	devCfg := flash.EmulatorConfig(4, mb, nand.SLC)
	sys, err := system.New(system.Config{Stack: system.StackNoFTL, Device: &devCfg, Frames: 128})
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.NewTPCB(workload.TPCBConfig{Branches: 4, AccountsPerBranch: 200})
	cfg := smallTPS(4, 4, storage.AssocDieWise)
	cfg.Measure = measure
	return RunTPS(sys, wl, cfg)
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
		// The transaction phase runs on a pool an eighth of the
		// database, so it misses: a pool that holds the whole database
		// records a trace of write-backs with almost no reads.
		if row.TraceReads < row.TraceWrites {
			t.Errorf("%s: transaction trace has %d reads < %d writes; is the database resident?",
				row.Workload, row.TraceReads, row.TraceWrites)
		}
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
}

func TestFigure4SmokeShape(t *testing.T) {
	res, err := Figure4(Fig4Config{
		Params: Params{Workers: 8, DriveMB: 48, Frames: 128,
			Warm: 200 * sim.Millisecond, Measure: sim.Second, Seed: 5},
		Workload: "tpcb",
		Sweep:    []int{1, 4},
		// 8,000 accounts exceed the 128 frames, as in the paper's regime.
		// A population the pool caches commits so fast on the
		// zero-latency memory log that it fills three quarters of the
		// log between two 100 ms checkpointer ticks, and WAL.awaitRoom
		// holds committers back until the next checkpoint anchors: a
		// log-bound run, not the write-back regime Figure 4 measures.
		TPCB: workload.TPCBConfig{Branches: 4, AccountsPerBranch: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, row := range res.Rows {
		names = append(names, row.Name)
		if row.Result.TPS <= 0 {
			t.Fatalf("%s: zero TPS", row.Name)
		}
		// The db-writers write back at every point.
		if row.Result.Buffer.AsyncWrites <= 0 {
			t.Errorf("%s: no db-writer write-back: %+v", row.Name, row.Result.Buffer)
		}
	}
	if got := strings.Join(names, " "); got != "1/global 1/die-wise 4/global 4/die-wise" {
		t.Fatalf("rows %s, want dies-major, global first", got)
	}
	// More dies must help both strategies.
	for _, assoc := range []string{"global", "die-wise"} {
		if res.Ratio("4/"+assoc, "1/"+assoc, TPS) <= 1 {
			t.Errorf("%s TPS did not scale with dies:\n%s", assoc, res.Table())
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
	first, last := res.Scaling[0], res.Scaling[len(res.Scaling)-1]
	if first.Dies != 1 || last.Dies != 8 || last.IOPS < 4*first.IOPS {
		t.Errorf("scaling: %+v", res.Scaling)
	}
}

// TestLatencySmokeShape also pins that Latency returns: NoFTL's run ends
// when its writer is done, since the idle maintenance workers park.
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
