package noftl

import (
	"noftl/internal/ioreq"
	"reflect"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/nand"
	"noftl/internal/sched"
	"noftl/internal/sim"
)

// The background maintenance workers program against this contract.
var _ sched.GCDriver = (*Volume)(nil)

func backgroundTestVolume(t *testing.T) (*flash.Device, *Volume) {
	t.Helper()
	dev := flash.New(flash.Config{
		Geometry: nand.Geometry{
			Channels:        2,
			ChipsPerChannel: 1,
			DiesPerChip:     1,
			PlanesPerDie:    2,
			BlocksPerPlane:  24,
			PagesPerBlock:   16,
			PageSize:        1024,
			OOBSize:         32,
		},
		Cell: nand.SLC,
		Nand: nand.Options{StoreData: true},
	})
	v, err := New(dev, Config{BackgroundGC: true, WearDelta: 8})
	if err != nil {
		t.Fatal(err)
	}
	return dev, v
}

// runBackgroundStress fills the volume, then overwrites from concurrent
// writer processes while background workers keep the regions clean. It
// returns the final volume stats plus the workers' GC steps.
func runBackgroundStress(t *testing.T, seed int64) (ftl.Stats, int64) {
	t.Helper()
	dev, v := backgroundTestVolume(t)
	buf := make([]byte, 1024)

	// Serial fill to ~85% so GC pressure is constant during the run.
	span := v.LogicalPages() * 85 / 100
	cw := &sim.ClockWaiter{}
	for lpn := int64(0); lpn < span; lpn++ {
		if err := v.Write(ioreq.Plain(cw), lpn, buf); err != nil {
			t.Fatalf("fill lpn %d: %v", lpn, err)
		}
	}
	dev.ResetTime()
	dev.ResetStats()

	k := sim.New()
	var fatal error
	mt := sched.StartMaintenance(k, v, sched.MaintConfig{
		OnError: func(err error) { fatal = err },
	})

	stopped := false
	const writers = 4
	for i := 0; i < writers; i++ {
		i := i
		rng := seed + int64(i)*7919
		k.Go("writer", func(p *sim.Proc) {
			w := sim.ProcWaiter{P: p}
			x := uint64(rng)
			for !stopped {
				// xorshift keeps the test free of math/rand ordering.
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				lpn := int64(x % uint64(span))
				if err := v.Write(ioreq.Plain(w), lpn, buf); err != nil {
					fatal = err
					return
				}
			}
		})
	}

	// Monitor the free-block floor. A plane may dip to zero free blocks
	// for an instant (the last free block just became a frontier; the
	// next allocation triggers the emergency collection), but it must
	// never STAY dry: a plane at zero across many consecutive samples
	// with no GC in flight means reclamation stalled.
	streak := make(map[[2]int]int)
	k.Go("monitor", func(p *sim.Proc) {
		for !stopped {
			p.Sleep(500 * sim.Microsecond)
			for r, d := range v.dies {
				for plane := 0; plane < d.sp.Planes(); plane++ {
					key := [2]int{r, plane}
					if d.bt.FreeCount(plane) < 1 && !d.gcActive[plane] {
						streak[key]++
						if streak[key] > 20 { // 10ms dry with no GC running
							fatal = errFloor{region: r, plane: plane}
							return
						}
					} else {
						streak[key] = 0
					}
				}
			}
		}
	})

	k.RunFor(200 * sim.Millisecond)
	stopped = true
	mt.Stop()
	k.RunFor(5 * sim.Millisecond)
	k.Shutdown()

	if fatal != nil {
		t.Fatalf("background stress: %v", fatal)
	}
	if err := v.checkAccounting(); err != nil {
		t.Fatalf("accounting after stress: %v", err)
	}
	// Every plane ends at or above the floor.
	for _, d := range v.dies {
		for plane := 0; plane < d.sp.Planes(); plane++ {
			if d.bt.FreeCount(plane) < 1 {
				t.Fatalf("die %d plane %d ended with %d free blocks", d.sp.Die, plane, d.bt.FreeCount(plane))
			}
		}
	}
	return v.Stats(), mt.GCSteps
}

type errFloor struct{ region, plane int }

func (e errFloor) Error() string {
	return "free-block floor violated without GC in flight"
}

// TestBackgroundGCInvariants runs concurrent writers against a
// BackgroundGC volume with dedicated maintenance workers: the workers
// must make progress while writes commit, the free-block floor must
// hold, and the volume's accounting must stay consistent.
func TestBackgroundGCInvariants(t *testing.T) {
	st, gcSteps := runBackgroundStress(t, 42)
	if gcSteps == 0 {
		t.Fatal("background worker made no GC progress")
	}
	if st.HostWrites == 0 {
		t.Fatal("writers committed nothing")
	}
	if st.Erases == 0 {
		t.Fatal("no blocks reclaimed under sustained overwrite")
	}
}

// TestBackgroundGCDeterminism repeats the stress with a fixed seed and
// expects identical flash-maintenance counters.
func TestBackgroundGCDeterminism(t *testing.T) {
	s1, gc1 := runBackgroundStress(t, 7)
	s2, gc2 := runBackgroundStress(t, 7)
	if !reflect.DeepEqual(s1, s2) || gc1 != gc2 {
		t.Fatalf("nondeterministic background GC:\n%+v gc=%d\n%+v gc=%d", s1, gc1, s2, gc2)
	}
}

// TestInlineWaterHonorsBackgroundGC pins the emergency-floor contract:
// with BackgroundGC the write path only collects when a plane is dry,
// without it the lowWater mark applies.
func TestInlineWaterHonorsBackgroundGC(t *testing.T) {
	dev, v := backgroundTestVolume(t)
	_ = dev
	if got := v.dies[0].inlineWater(); got != 1 {
		t.Fatalf("BackgroundGC inline water = %d, want 1", got)
	}
	v2, err := New(flash.New(flash.EmulatorConfig(1, 8, nand.SLC)), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := v2.dies[0].inlineWater(); got != lowWater {
		t.Fatalf("inline water = %d, want lowWater %d", got, lowWater)
	}
}

// TestWriteWaitsForTheCollectionOfItsPlane: a write that finds its only
// plane dry and being collected by another operation parks until that
// collection ends, and programs from that instant.
func TestWriteWaitsForTheCollectionOfItsPlane(t *testing.T) {
	newVol := func() *Volume {
		dev := flash.New(flash.Config{
			Geometry: nand.Geometry{
				Channels: 1, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: 16, PagesPerBlock: 8, PageSize: 256, OOBSize: 16,
			},
			Cell: nand.SLC,
			Nand: nand.Options{StoreData: true},
		})
		v, err := New(dev, Config{BackgroundGC: true, DisableWearLevel: true})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// An uncontended write's latency on an idle die.
	cw := &sim.ClockWaiter{}
	if err := newVol().Write(ioreq.Plain(cw), 0, fillPage(256, 0, 1)); err != nil {
		t.Fatal(err)
	}
	write := cw.T

	// Take every free block: each is an empty victim whose collection is
	// one erase.
	v := newVol()
	d := v.dies[0]
	for d.bt.FreeCount(0) > 0 {
		b, _ := d.bt.AllocFree(0, kindHot)
		d.bt.MarkFull(b)
	}
	k := sim.New()
	var collected, written sim.Time
	k.Go("collector", func(p *sim.Proc) {
		if did, err := v.GCStep(ioreq.Plain(sim.ProcWaiter{P: p}), 0); !did || err != nil {
			t.Errorf("GCStep = %v, %v; want one collection", did, err)
		}
		collected = p.Now()
	})
	k.Go("writer", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		if err := v.Write(ioreq.Plain(sim.ProcWaiter{P: p}), 0, fillPage(256, 0, 1)); err != nil {
			t.Error(err)
		}
		written = p.Now()
	})
	k.Run()
	if written-write != collected {
		t.Fatalf("write done at %v (%v after the %v collection end), want %v after it", written, written-collected, collected, write)
	}
	// A processless write cannot park. Finding the dry plane marked
	// collecting (a kernel stopped mid-collection), it falls back on the
	// frontier's room at once.
	d.gcActive[0] = true
	cw = &sim.ClockWaiter{T: written}
	if err := v.Write(ioreq.Plain(cw), 1, fillPage(256, 1, 1)); err != nil || cw.T-written != write {
		t.Fatalf("processless write: %v after %v, want done after %v", err, cw.T-written, write)
	}
}
