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
		name                 string
		opts                 []Option
		sched, tel, blameLog bool
	}{
		{name: "none"},
		{name: "scheduler", opts: []Option{WithPriorityScheduler()}, sched: true},
		{name: "scheduler+bggc", opts: []Option{WithPriorityScheduler(), WithBackgroundGC()}, sched: true},
		{name: "telemetry", opts: []Option{WithTelemetry(telemetry.Config{})}, tel: true},
		{name: "blame", opts: []Option{WithBlame(blame.Config{})}, sched: true, tel: true, blameLog: true},
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
				if (sys.Sched != nil) != set.sched || (sys.Tel != nil) != set.tel || (sys.CmdLog != nil) != set.blameLog {
					t.Fatalf("attachments: sched=%v tel=%v cmdlog=%v, want %v/%v/%v",
						sys.Sched != nil, sys.Tel != nil, sys.CmdLog != nil, set.sched, set.tel, set.blameLog)
				}
				if set.blameLog && sys.Blame() == nil {
					t.Fatal("blame-built system has no report")
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
// survives, the scheduler config's trace hook fires, and the
// system-owned command log records the same events.
func TestOptionOrderIndependent(t *testing.T) {
	type outcome struct {
		policy         sched.Policy
		hooked, logged int
	}
	build := func(order []int) outcome {
		hooked := 0
		opts := []Option{
			WithScheduler(sched.Config{Policy: sched.FCFS, Trace: func(sched.Event) { hooked++ }}),
			WithBlame(blame.Config{}),
		}
		var picked []Option
		for _, i := range order {
			picked = append(picked, opts[i])
		}
		sys, err := New(smallConfig(StackNoFTLRegions), picked...)
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
		out := outcome{policy: sys.Sched.Policy(), hooked: hooked, logged: len(sys.CmdLog.Events)}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := build([]int{0, 1})
	if want.policy != sched.FCFS || want.hooked == 0 || want.hooked != want.logged {
		t.Fatalf("scheduler+blame: %+v", want)
	}
	if got := build([]int{1, 0}); got != want {
		t.Fatalf("option order 1,0 built %+v, order 0,1 built %+v", got, want)
	}
}

// TestCallerLayoutNotMutated: the builder writes the scheduler and the
// background-GC flag into its own copy of a custom layout, never through
// the caller's Regions slice.
func TestCallerLayoutNotMutated(t *testing.T) {
	lay := region.DefaultDBLayout(1)
	before := region.Layout{
		Regions:   append([]region.Spec(nil), lay.Regions...),
		Placement: lay.Placement,
	}
	cfg := smallConfig(StackNoFTLRegions)
	cfg.Layout = &lay
	sys, err := New(cfg, WithPriorityScheduler(), WithBackgroundGC())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if !sys.backgroundGC || sys.Sched == nil {
		t.Fatal("options not applied")
	}
	if !reflect.DeepEqual(lay.Regions, before.Regions) || lay.Scheduler != nil {
		t.Fatalf("caller's layout mutated:\n got %+v\nwant %+v", lay, before)
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
