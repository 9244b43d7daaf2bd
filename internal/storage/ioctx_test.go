package storage

import (
	"testing"

	"noftl/internal/flash"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/sched"
	"noftl/internal/sim"
)

// TestNewIOCtxSubstitutesClockOnce: the private serial clock for a
// missing waiter is substituted at construction, the only place.
func TestNewIOCtxSubstitutesClockOnce(t *testing.T) {
	ctx := NewIOCtx(nil)
	ctx.W.WaitUntil(100)
	if ctx.W.Now() != 100 {
		t.Fatalf("private clock did not advance: %v", ctx.W.Now())
	}
	cw := &sim.ClockWaiter{}
	if got := NewIOCtx(cw); got.W != sim.Waiter(cw) {
		t.Fatal("a supplied waiter must be kept")
	}
}

// TestIOCtxDerivations checks the With* constructors derive without
// mutating the parent, and that the context itself is what goes down as
// the waiter.
func TestIOCtxDerivations(t *testing.T) {
	base := NewIOCtx(&sim.ClockWaiter{})
	d := base.WithClass(ioreq.ClassGC).WithTag(9)
	d.Deadline = 100
	if base.Class != ioreq.ClassDefault || base.Tag != 0 || base.Deadline != 0 {
		t.Fatalf("parent mutated: %+v", base)
	}
	if d.Class != ioreq.ClassGC || d.Tag != 9 || d.Deadline != 100 || d.W != base.W {
		t.Fatalf("derivation wrong: %+v", d)
	}
	w := d.Req().Waiter()
	if w != sim.Waiter((*ioreq.Req)(d)) {
		t.Fatalf("the context must ride down as the waiter, got %T", w)
	}
	if back := ioreq.From(w); back != ioreq.Req(*d) {
		t.Fatalf("descriptor lost on waiter round-trip: %+v", back)
	}
}

func ioctxTestDevice() *flash.Device {
	return flash.New(flash.Config{
		Geometry: nand.Geometry{
			Channels: 1, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
			BlocksPerPlane: 32, PagesPerBlock: 16, PageSize: 512, OOBSize: 16,
		},
		Cell: nand.SLC,
		Nand: nand.Options{StoreData: true},
	})
}

// TestTaggedReadAllocatesNothing: handing a context that declares intent
// down to the device allocates no per-call wrapper (one ioreq.Tagged per
// call before the context became the waiter).
func TestTaggedReadAllocatesNothing(t *testing.T) {
	nv, err := noftl.New(ioctxTestDevice(), noftl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	vol := NewNoFTLVolume(nv)
	ctx := NewIOCtx(&sim.ClockWaiter{}).WithClass(ioreq.ClassRead).WithTag(7)
	buf := make([]byte, vol.PageSize())
	const pages = 8
	for id := PageID(0); id < pages; id++ {
		if err := vol.WritePage(ctx, id, buf, HintNone); err != nil {
			t.Fatal(err)
		}
	}
	id := PageID(0)
	n := testing.AllocsPerRun(200, func() {
		if err := vol.ReadPage(ctx, id, buf); err != nil {
			t.Fatal(err)
		}
		id = (id + 1) % pages
	})
	if n != 0 {
		t.Fatalf("a tagged read allocated %v times per call, want 0", n)
	}
}

// TestSubmitSeesContextAsMutated: the scheduler reads the descriptor at
// submit from the context itself, so what a terminal sets between
// transactions (tag, span) is what the next command carries.
func TestSubmitSeesContextAsMutated(t *testing.T) {
	dev := ioctxTestDevice()
	k := sim.New()
	defer k.Shutdown()
	var evs []sched.Event
	s := sched.New(k, dev, sched.Config{Policy: sched.Priority, Trace: func(ev sched.Event) { evs = append(evs, ev) }})
	nv, err := noftl.New(dev, noftl.Config{Dev: s.Dev()})
	if err != nil {
		t.Fatal(err)
	}
	vol := NewNoFTLVolume(nv)
	buf := make([]byte, vol.PageSize())
	k.Go("terminal", func(p *sim.Proc) {
		ctx := NewIOCtx(sim.ProcWaiter{P: p}).WithTag(5)
		if err := vol.WritePage(ctx, 1, buf, HintNone); err != nil {
			t.Error(err)
		}
		ctx.Tag, ctx.Span = 6, ioreq.NewSpan(77, 0, 6)
		if err := vol.ReadPage(ctx, 1, buf); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if len(evs) != 2 {
		t.Fatalf("commands dispatched = %d, want 2", len(evs))
	}
	if evs[0].Op != "program" || evs[0].Tag != 5 || evs[0].Span != 0 {
		t.Fatalf("first command: %+v", evs[0])
	}
	if evs[1].Op != "read" || evs[1].Tag != 6 || evs[1].Span != 77 {
		t.Fatalf("second command did not see the mutated context: %+v", evs[1])
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestMissingContextPanics: the descriptor is mandatory. A dropped
// context crashes the first call that needs it instead of running on a
// substituted clock.
func TestMissingContextPanics(t *testing.T) {
	e, _, _, _ := newTestEngine(t, 16)
	var none *IOCtx
	mustPanic(t, "BufferPool.Pin(nil ctx) on a miss", func() { _, _ = e.Buffer().Pin(none, 1, false) })
	mustPanic(t, "Engine.CreateTable(nil ctx)", func() { _, _ = e.CreateTable(none, "t") })
	nv, err := noftl.New(ioctxTestDevice(), noftl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	vol := NewNoFTLVolume(nv)
	buf := make([]byte, vol.PageSize())
	//noftl:ignore ioreqclass this test exists to prove a zero-value context crashes at its first I/O
	mustPanic(t, "WritePage(zero-value ctx)", func() { _ = vol.WritePage(&IOCtx{}, 0, buf, HintNone) })
}
