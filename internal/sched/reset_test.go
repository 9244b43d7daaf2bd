package sched

import (
	"reflect"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// phase runs one self-contained measurement stack against dev: a fresh
// kernel, a fresh scheduler, concurrent per-die clients doing
// program/read/erase rounds that leave the array erased again. It
// returns the device and scheduler stats the stack observed.
func phase(t *testing.T, dev *flash.Device) (flash.Stats, Stats) {
	t.Helper()
	k := sim.New()
	s := New(k, dev, Config{Policy: Priority})
	geo := dev.Geometry()
	data := make([]byte, geo.PageSize)
	for die := 0; die < geo.Dies(); die++ {
		die := die
		k.Go("client", func(p *sim.Proc) {
			w := sim.ProcWaiter{P: p}
			first := geo.FirstPage(geo.PBNOf(die, 0, 0))
			prog := s.Bind(ClassProgram)
			rd := s.Bind(ClassRead)
			gc := s.Bind(ClassGC)
			for pg := 0; pg < 4; pg++ {
				if err := prog.ProgramPage(w, first+nand.PPN(pg), data, nand.OOB{LPN: uint64(pg)}); err != nil {
					t.Error(err)
				}
			}
			for pg := 0; pg < 4; pg++ {
				if _, err := rd.ReadPage(w, first+nand.PPN(pg), nil); err != nil {
					t.Error(err)
				}
			}
			if err := gc.EraseBlock(w, geo.PBNOf(die, 0, 0)); err != nil {
				t.Error(err)
			}
		})
	}
	k.Run()
	k.Shutdown()
	return dev.Stats(), s.Stats()
}

// TestResetBetweenStacks is the regression test for splicing bench
// stacks on one device: after ResetTime+ResetStats, a second stack must
// observe exactly what a stack on a virgin device observes — no stale
// per-die busy-until times, no inherited queue-wait counters.
func TestResetBetweenStacks(t *testing.T) {
	cfg := flash.Config{
		Geometry: nand.Geometry{
			Channels:        2,
			ChipsPerChannel: 2,
			DiesPerChip:     1,
			PlanesPerDie:    1,
			BlocksPerPlane:  8,
			PagesPerBlock:   8,
			PageSize:        512,
			OOBSize:         16,
		},
		Cell: nand.SLC,
		Nand: nand.Options{StoreData: true},
	}

	dev := flash.New(cfg)
	if _, first := phase(t, dev); first.TotalScheduled() == 0 {
		t.Fatalf("first stack recorded no queueing: %+v", first)
	}
	dev.ResetTime()
	dev.ResetStats()
	second, schedSecond := phase(t, dev)

	virgin := flash.New(cfg)
	want, schedWant := phase(t, virgin)

	// Erase counts differ (wear persists across stacks by design), but
	// every timing and counter the bench reads must match a virgin run.
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("second stack inherited state through the reset:\n got %+v\nwant %+v", second, want)
	}
	if !reflect.DeepEqual(schedSecond, schedWant) {
		t.Fatalf("scheduler stats inherited state:\n got %+v\nwant %+v", schedSecond, schedWant)
	}
}

// TestResetClearsSchedulerAccounting checks the reset hook wiring: the
// scheduler registered on the device is reset by both ResetTime and
// ResetStats.
func TestResetClearsSchedulerAccounting(t *testing.T) {
	dev := testDev(1)
	k := sim.New()
	s := New(k, dev, Config{})
	d := s.Bind(ClassProgram)
	k.Go("w", func(p *sim.Proc) {
		if err := d.ProgramPage(sim.ProcWaiter{P: p}, 0, make([]byte, 512), nand.OOB{LPN: 1}); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	k.Shutdown()
	if st := s.Stats(); st.TotalScheduled() != 1 {
		t.Fatalf("scheduled = %d, want 1", st.TotalScheduled())
	}
	dev.ResetTime()
	if st := s.Stats(); st.TotalScheduled() != 0 {
		t.Fatal("ResetTime did not clear scheduler accounting")
	}
}
