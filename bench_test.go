// Benchmarks regenerating every table and figure of the paper's
// evaluation at reduced scale (full-scale parameters are reachable via
// cmd/noftlbench flags). Each benchmark reports the figure's headline
// metric through b.ReportMetric, so `go test -bench=.` reproduces the
// paper's numbers column.
package noftl_test

import (
	"math/rand"
	"testing"

	"noftl/internal/bench"
	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/nand"
	inoftl "noftl/internal/noftl"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/system"
	"noftl/internal/workload"
)

// --- Figure 3: GC overhead of FASTer vs NoFTL (off-line replay) ---

func BenchmarkFigure3_GCOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Figure3(bench.Fig3Config{
			TPCC:         workload.TPCCConfig{Warehouses: 1, CustomersPerDistrict: 60, Items: 200, InitialOrdersPerDistrict: 20},
			TPCB:         workload.TPCBConfig{Branches: 8, AccountsPerBranch: 2000},
			TPCE:         workload.TPCEConfig{Customers: 200, Securities: 200},
			Transactions: 2000,
			Seed:         int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.ReportMetric(row.RelativeCopyback, "copyback_ratio_"+row.Workload)
				b.ReportMetric(row.RelativeErase, "erase_ratio_"+row.Workload)
			}
		}
	}
}

// --- Figure 4a/4b: db-writer association sweep ---

func benchFigure4(b *testing.B, wl string) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Figure4(bench.Fig4Config{
			Params: bench.Params{DriveMB: 96, Workers: 12, Frames: 192,
				Warm: 500 * sim.Millisecond, Measure: 3 * sim.Second, Seed: int64(i)},
			Workload: wl,
			Sweep:    []int{1, 4, 8},
			TPCB:     workload.TPCBConfig{Branches: 16},
			TPCC:     workload.TPCCConfig{Warehouses: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.DieWiseSpeedup(), "max_diewise_speedup")
			for _, dies := range []string{"1", "4", "8"} {
				b.ReportMetric(res.Row(dies+"/die-wise").Result.TPS, "tps_diewise_"+dies)
				b.ReportMetric(res.Row(dies+"/global").Result.TPS, "tps_global_"+dies)
			}
		}
	}
}

func BenchmarkFigure4a_TPCC_Writers(b *testing.B) { benchFigure4(b, "tpcc") }

func BenchmarkFigure4b_TPCB_Writers(b *testing.B) { benchFigure4(b, "tpcb") }

// --- Headline: end-to-end TPS per storage stack ---

func BenchmarkHeadline_TPS_Stacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Headline(bench.HeadlineConfig{
			Workload: "tpcc",
			Params: bench.Params{Dies: 4, DriveMB: 96, Workers: 12, Writers: 4, Frames: 256,
				Warm: 500 * sim.Millisecond, Measure: 3 * sim.Second, Seed: int64(i)},
			TPCC: workload.TPCCConfig{Warehouses: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Ratio("noftl", "faster", bench.TPS), "noftl_vs_faster")
			b.ReportMetric(res.Ratio("pagemap", "dftl", bench.TPS), "pagemap_vs_dftl")
			for _, row := range res.Rows {
				b.ReportMetric(row.Result.TPS, "tps_"+row.Name)
			}
		}
	}
}

// --- §3 latency: 4KB random writes, FTL outliers vs NoFTL ---

func BenchmarkLatency_RandomWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Latency(bench.LatencyConfig{
			Ops: 8000, DriveMB: 32, Dies: 2, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			f := res.HistOf(system.StackFaster)
			n := res.HistOf(system.StackNoFTL)
			b.ReportMetric(f.Mean().Seconds()*1e3, "faster_mean_ms")
			b.ReportMetric(f.Max().Seconds()*1e3, "faster_max_ms")
			b.ReportMetric(n.Mean().Seconds()*1e3, "noftl_mean_ms")
			b.ReportMetric(n.Max().Seconds()*1e3, "noftl_max_ms")
		}
	}
}

// --- Demo 1: emulator validation ---

func BenchmarkEmulatorValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Validate(bench.ValidateConfig{Ops: 800, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MaxErrorPct(), "max_model_error_pct")
			sc := res.Scaling // 1 die first, 8 last
			b.ReportMetric(sc[len(sc)-1].IOPS/sc[0].IOPS, "iops_scaling_8dies")
		}
	}
}

// --- §5 longevity: erase reduction -> lifetime factor ---

func BenchmarkLongevity_Erases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Figure3(bench.Fig3Config{
			TPCB:         workload.TPCBConfig{Branches: 8, AccountsPerBranch: 2000},
			TPCC:         workload.TPCCConfig{Warehouses: 1, CustomersPerDistrict: 60, Items: 200, InitialOrdersPerDistrict: 20},
			TPCE:         workload.TPCEConfig{Customers: 200, Securities: 200},
			Transactions: 2000,
			Seed:         int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.ReportMetric(row.RelativeErase, "lifetime_factor_"+row.Workload)
			}
		}
	}
}

// --- Ablations A1-A4 ---

func BenchmarkAblation_GCPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.AblationGCPolicy(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range res.Points {
				b.ReportMetric(p.WA, "wa_"+p.Param)
			}
		}
	}
}

func BenchmarkAblation_DFTLCMT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.AblationDFTLCMT(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res.Points) >= 2 {
			b.ReportMetric(float64(res.Points[0].MapIO), "mapio_smallest_cmt")
			b.ReportMetric(float64(res.Points[len(res.Points)-1].MapIO), "mapio_largest_cmt")
		}
	}
}

func BenchmarkAblation_FasterLog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.AblationFasterLog(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range res.Points {
				b.ReportMetric(p.WA, "wa_log_"+ftoa(p.Value))
			}
		}
	}
}

func BenchmarkAblation_OverProvisioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.AblationOverProvision(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range res.Points {
				b.ReportMetric(p.WA, "wa_op_"+ftoa(p.Value))
			}
		}
	}
}

// --- Micro-benchmarks: the building blocks ---

func BenchmarkDevice_ProgramPage(b *testing.B) {
	dev := flash.New(flash.EmulatorConfig(4, 64, nand.SLC))
	geo := dev.Geometry()
	w := &sim.ClockWaiter{}
	buf := make([]byte, geo.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		die := i % geo.Dies()
		block := (i / geo.Dies()) % geo.BlocksPerDie() / geo.PlanesPerDie
		page := i % geo.PagesPerBlock
		ppn := geo.PPNOf(die, 0, block%geo.BlocksPerPlane, page)
		st, _ := dev.Array().PageState(ppn)
		if st == nand.PageProgrammed || dev.Array().NextProgramPage(geo.BlockOf(ppn)) != geo.PageIndex(ppn) {
			b.StopTimer()
			_ = dev.EraseBlock(w, geo.BlockOf(ppn))
			b.StartTimer()
		}
		_ = dev.ProgramPage(w, ppn, buf, nand.OOB{})
	}
}

func BenchmarkPageFTL_RandomWrite(b *testing.B) {
	dev := flash.New(flash.EmulatorConfig(4, 64, nand.SLC))
	f, err := inoftl.NewPageFTL(dev, ftl.PageFTLConfig{})
	if err != nil {
		b.Fatal(err)
	}
	w := &sim.ClockWaiter{}
	buf := make([]byte, dev.Geometry().PageSize)
	n := f.LogicalPages()
	rng := newBenchRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Write(w, rng.Int63n(n), buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngine_TPCBTransaction(b *testing.B) {
	data := storage.NewMemVolume(4096, 1<<17)
	logv := storage.NewMemVolume(4096, 1<<15)
	ctx := storage.NewIOCtx(nil)
	if err := storage.Format(ctx, data, logv); err != nil {
		b.Fatal(err)
	}
	e, err := storage.Open(ctx, data, logv, storage.EngineConfig{BufferFrames: 1024})
	if err != nil {
		b.Fatal(err)
	}
	wl := workload.NewTPCB(workload.TPCBConfig{Branches: 8})
	if err := wl.Load(ctx, e); err != nil {
		b.Fatal(err)
	}
	rng := newBenchRand(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wl.RunOne(ctx, e, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTree_Insert(b *testing.B) {
	data := storage.NewMemVolume(4096, 1<<18)
	logv := storage.NewMemVolume(4096, 1<<15)
	ctx := storage.NewIOCtx(nil)
	if err := storage.Format(ctx, data, logv); err != nil {
		b.Fatal(err)
	}
	e, err := storage.Open(ctx, data, logv, storage.EngineConfig{BufferFrames: 2048})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := e.CreateIndex(ctx, "bench")
	if err != nil {
		b.Fatal(err)
	}
	tx := e.Begin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := int64(i)*2654435761%(1<<40) + int64(i)
		_ = e.IdxInsert(ctx, tx, idx, key, storage.RID{Page: storage.PageID(i)})
	}
}

// small helpers (no fmt in hot paths)

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

func ftoa(f float64) string {
	return itoa(int(f*100)) + "pct"
}

func newBenchRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
