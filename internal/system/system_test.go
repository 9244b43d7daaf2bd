package system

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/region"
	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/storage"
	"noftl/internal/telemetry"
	"noftl/internal/telemetry/blame"
)

var allStacks = []Stack{StackNoFTL, StackFaster, StackDFTL, StackPagemap,
	StackNoFTLDelta, StackNoFTLSingle, StackNoFTLRegions}

func smallConfig(stack Stack) Config {
	dev := flash.EmulatorConfig(2, 24, nand.SLC)
	return Config{Stack: stack, Device: &dev, Frames: 64}
}

// TestNewAllStacksAllOptionSets builds every stack under every option
// combination the experiments use: the system is complete, the
// cross-layer snapshot sees the format's traffic, the attachments asked
// for are there, and Close leaves no process behind.
func TestNewAllStacksAllOptionSets(t *testing.T) {
	optionSets := []struct {
		name              string
		opts              []Option
		sched, tel, blame bool
	}{
		{name: "none"},
		{name: "scheduler", opts: []Option{WithPriorityScheduler()}, sched: true},
		{name: "scheduler+bggc", opts: []Option{WithPriorityScheduler(), WithBackgroundGC()}, sched: true},
		{name: "telemetry", opts: []Option{WithTelemetry(telemetry.Config{})}, tel: true},
		{name: "blame", opts: []Option{WithBlame(blame.Config{})}, sched: true, tel: true, blame: true},
	}
	base := runtime.NumGoroutine()
	for _, stack := range allStacks {
		for _, set := range optionSets {
			t.Run(string(stack)+"/"+set.name, func(t *testing.T) {
				sys, err := New(smallConfig(stack), set.opts...)
				if err != nil {
					t.Fatal(err)
				}
				if sys.Engine == nil || sys.Vol == nil || sys.Dev == nil || sys.K == nil {
					t.Fatalf("incomplete system: %+v", sys)
				}
				snap := sys.Snapshot()
				if snap.Device.Programs == 0 || snap.FTL.HostWrites == 0 {
					t.Fatalf("snapshot missed the format's writes: device %+v ftl %+v", snap.Device, snap.FTL)
				}
				if (stack == StackNoFTLRegions) != (len(snap.Regions) == 2) {
					t.Fatalf("region rows = %d on %s", len(snap.Regions), stack)
				}
				if (sys.Sched != nil) != set.sched || (sys.Tel != nil) != set.tel || (sys.Blame() != nil) != set.blame {
					t.Fatalf("attachments: sched=%v tel=%v blame=%v, want %v/%v/%v",
						sys.Sched != nil, sys.Tel != nil, sys.Blame() != nil, set.sched, set.tel, set.blame)
				}
				wantBG := set.name == "scheduler+bggc"
				if sys.backgroundGC != wantBG {
					t.Fatalf("backgroundGC = %v, want %v", sys.backgroundGC, wantBG)
				}
				if maint := sys.StartMaintenance(sched.MaintConfig{}); (maint != nil) != (wantBG && sys.NoFTL != nil) {
					t.Fatalf("StartMaintenance = %v on %s/%s", maint, stack, set.name)
				}
				if err := sys.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				if n := sys.K.Alive(); n != 0 {
					t.Fatalf("%d processes alive after Close", n)
				}
			})
		}
	}
	for i := 0; i < 200 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines = %d after closing every system, want baseline %d", n, base)
	}
	if _, err := New(smallConfig("bogus")); err == nil {
		t.Fatal("bogus stack accepted")
	}
}

// TestOptionOrderIndependent: WithScheduler and WithBlame compose to
// the same system whatever order they are given in — the explicit policy
// survives and the system-owned command log records the same events.
func TestOptionOrderIndependent(t *testing.T) {
	type outcome struct {
		policy sched.Policy
		log    []sched.Event
	}
	build := func(opts ...Option) outcome {
		sys, err := New(smallConfig(StackNoFTLRegions), opts...)
		if err != nil {
			t.Fatal(err)
		}
		var runErr error
		sys.K.Go("client", func(p *sim.Proc) {
			ctx := storage.NewIOCtx(sim.ProcWaiter{P: p})
			buf := make([]byte, sys.Vol.PageSize())
			if runErr = sys.Vol.WritePage(ctx, 3, buf, storage.HintHotData); runErr == nil {
				runErr = sys.Vol.ReadPage(ctx, 3, buf)
			}
		})
		sys.K.RunFor(sim.Second)
		if runErr != nil {
			t.Fatal(runErr)
		}
		out := outcome{policy: sys.Sched.Policy(), log: sys.CmdLog}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := build(WithScheduler(sched.FCFS), WithBlame(blame.Config{}))
	if want.policy != sched.FCFS || len(want.log) == 0 {
		t.Fatalf("scheduler+blame: policy %v, %d logged commands", want.policy, len(want.log))
	}
	got := build(WithBlame(blame.Config{}), WithScheduler(sched.FCFS))
	if got.policy != want.policy || !reflect.DeepEqual(got.log, want.log) {
		t.Fatalf("blame before scheduler: policy %v, %d logged commands; scheduler first: %v, %d",
			got.policy, len(got.log), want.policy, len(want.log))
	}
}

// TestHealthWithoutOptions: a system built with no options still reads
// its device health — one row per die, region rows only where a region
// manager carves the array — and, with no sampler, no timelines.
func TestHealthWithoutOptions(t *testing.T) {
	for _, stack := range allStacks {
		t.Run(string(stack), func(t *testing.T) {
			sys, err := New(smallConfig(stack))
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			h := sys.Health()
			dies := sys.Dev.Geometry().Dies()
			if h.Device.Dies != dies || len(h.Dies) != dies {
				t.Fatalf("device says %d dies, snapshot has %d rows, want %d", h.Device.Dies, len(h.Dies), dies)
			}
			for i, d := range h.Dies {
				if d.Die != i || len(d.Blocks) != h.Device.BlocksPerDie {
					t.Fatalf("die row %d: die %d with %d blocks, want %d", i, d.Die, len(d.Blocks), h.Device.BlocksPerDie)
				}
			}
			if (stack == StackNoFTLRegions) != (len(h.Regions) > 0) {
				t.Fatalf("%d region rows on %s", len(h.Regions), stack)
			}
			if h.Wear.TotalBlocks == 0 || h.Timelines != nil {
				t.Fatalf("wear over %d blocks, %d timelines; want wear and no timelines",
					h.Wear.TotalBlocks, len(h.Timelines))
			}
		})
	}
}

// TestRegionStackRefusesUnmountableLayouts: the engine mounts one
// page-mapped region for its data and one sequential region for its
// WAL, so New on any other set of regions returns an error rather than
// a stack it cannot mount.
func TestRegionStackRefusesUnmountableLayouts(t *testing.T) {
	for name, specs := range map[string][]region.Spec{
		"one page-mapped region": {{Name: "data", Mapping: region.PageMapped}},
		"two page-mapped regions": {
			{Name: "log", Dies: 1, Mapping: region.PageMapped},
			{Name: "data", Mapping: region.PageMapped},
		},
		"two sequential regions": {
			{Name: "log", Dies: 1, Mapping: region.SeqMapped},
			{Name: "log2", Dies: 1, Mapping: region.SeqMapped},
			{Name: "data", Mapping: region.PageMapped},
		},
	} {
		dev := flash.EmulatorConfig(4, 24, nand.SLC)
		sys, err := New(Config{Stack: StackNoFTLRegions, Device: &dev, Frames: 64, Regions: specs})
		if err == nil {
			sys.Close()
			t.Errorf("%s: New built a stack the engine cannot mount", name)
		}
	}
}

// TestPrefetcherReadsDispatchAtPrefetchClass: on a priority-scheduled
// region stack, the reads the prefetcher processes issue are counted
// under sched.ClassPrefetch and never under ClassRead — the class rides
// on the prefetcher's request, there is no separate prefetch read path.
func TestPrefetcherReadsDispatchAtPrefetchClass(t *testing.T) {
	sys, err := New(smallConfig(StackNoFTLRegions), WithPriorityScheduler(), WithPrefetch(8))
	if err != nil {
		t.Fatal(err)
	}
	// Pages on flash but not in the pool: written past the buffer, on the
	// serial set-up clock (which bypasses the die queues).
	const first, n = 200, 8
	buf := make([]byte, sys.Vol.PageSize())
	bp := sys.Engine.Buffer()
	for id := storage.PageID(first); id < first+n; id++ {
		if err := sys.Vol.WritePage(sys.Ctx, id, buf, storage.HintColdData); err != nil {
			t.Fatal(err)
		}
		if !bp.RequestPrefetch(id) {
			t.Fatalf("prefetch request for page %d rejected", id)
		}
	}
	sys.Dev.ResetTime()
	sys.Dev.ResetStats()
	var fatal error
	stop := sys.Engine.StartPrefetchers(sys.K, storage.PrefetcherConfig{N: 2,
		OnError: func(err error) { fatal = err }})
	sys.K.RunFor(50 * sim.Millisecond)
	stop()
	if fatal != nil {
		t.Fatal(fatal)
	}
	st := sys.Sched.Stats()
	if got := bp.Stats().Prefetches; got != n {
		t.Fatalf("prefetched %d pages, want %d", got, n)
	}
	if st.Scheduled[sched.ClassPrefetch] != n || st.Scheduled[sched.ClassRead] != 0 {
		t.Fatalf("prefetcher reads must dispatch at the prefetch class only: %v", st.Scheduled)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}
