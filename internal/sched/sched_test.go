package sched

import (
	"reflect"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

func testDev(dies int) *flash.Device {
	return flash.New(flash.Config{
		Geometry: nand.Geometry{
			Channels:        1,
			ChipsPerChannel: dies,
			DiesPerChip:     1,
			PlanesPerDie:    1,
			BlocksPerPlane:  8,
			PagesPerBlock:   8,
			PageSize:        512,
			OOBSize:         16,
		},
		Cell: nand.SLC,
		Nand: nand.Options{StoreData: true},
	})
}

// TestPriorityOrdering checks that a foreground read overtakes queued
// lower-priority work under Priority but not under FCFS.
func TestPriorityOrdering(t *testing.T) {
	for _, policy := range []Policy{FCFS, Priority} {
		dev := testDev(1)
		k := sim.New()
		s := New(k, dev, Config{Policy: policy})
		gcDev := s.Bind(ClassGC)
		rdDev := s.Bind(ClassRead)
		data := make([]byte, 512)

		// Preload page 0 so the read has something to fetch.
		if err := dev.ProgramPage(&sim.ClockWaiter{}, 0, data, nand.OOB{LPN: 1}); err != nil {
			t.Fatal(err)
		}
		dev.ResetTime()
		dev.ResetStats()

		var gcEnd, readEnd sim.Time
		// Two GC programs queue first (separate procs, so both are
		// pending at once); the read arrives one instant later.
		k.Go("gc1", func(p *sim.Proc) {
			if err := gcDev.ProgramPage(sim.ProcWaiter{P: p}, 8, data, nand.OOB{LPN: 2}); err != nil {
				t.Error(err)
			}
		})
		k.Go("gc2", func(p *sim.Proc) {
			if err := gcDev.ProgramPage(sim.ProcWaiter{P: p}, 9, data, nand.OOB{LPN: 3}); err != nil {
				t.Error(err)
			}
			gcEnd = p.Now()
		})
		k.Go("reader", func(p *sim.Proc) {
			p.Sleep(sim.Microsecond)
			w := sim.ProcWaiter{P: p}
			if _, err := rdDev.ReadPage(w, 0, nil); err != nil {
				t.Error(err)
			}
			readEnd = p.Now()
		})
		k.Run()
		k.Shutdown()

		switch policy {
		case Priority:
			// The read jumps ahead of the second (still queued) program.
			if readEnd >= gcEnd {
				t.Fatalf("priority: read finished at %v, after GC at %v", readEnd, gcEnd)
			}
		case FCFS:
			if readEnd <= gcEnd {
				t.Fatalf("fcfs: read finished at %v, before GC at %v", readEnd, gcEnd)
			}
		}
		st := s.Stats()
		if st.Scheduled[ClassRead] != 1 || st.Scheduled[ClassGC] != 2 {
			t.Fatalf("scheduled = %v", st.Scheduled)
		}
	}
}

// TestEraseSuspension checks that a read arriving mid-erase is served at
// suspension latency rather than waiting out tBERS, and that the erase
// still completes (with the suspend/resume penalty).
func TestEraseSuspension(t *testing.T) {
	dev := testDev(1)
	id := dev.Identify()
	k := sim.New()
	s := New(k, dev, Config{Policy: Priority})
	gcDev := s.Bind(ClassGC)
	rdDev := s.Bind(ClassRead)
	data := make([]byte, 512)

	// The read target lives in block 1; the erase hits block 0.
	if err := dev.ProgramPage(&sim.ClockWaiter{}, 8, data, nand.OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	dev.ResetTime()
	dev.ResetStats()

	var readLat, eraseEnd sim.Time
	k.Go("gc", func(p *sim.Proc) {
		if err := gcDev.EraseBlock(sim.ProcWaiter{P: p}, 0); err != nil {
			t.Error(err)
		}
		eraseEnd = p.Now()
	})
	k.Go("reader", func(p *sim.Proc) {
		p.Sleep(200 * sim.Microsecond) // well inside the 1.5ms erase
		t0 := p.Now()
		if _, err := rdDev.ReadPage(sim.ProcWaiter{P: p}, 8, nil); err != nil {
			t.Error(err)
		}
		readLat = p.Now() - t0
	})
	k.Run()
	k.Shutdown()

	// Without suspension the read would wait ~1.3ms for the erase; with
	// it, the wait is tSUS + service.
	maxRead := id.Timing.EraseSuspend + id.Timing.ReadPage + id.TransferPage + 4*id.CmdOverhead
	if readLat > maxRead {
		t.Fatalf("read latency %v, want <= %v (suspension broken)", readLat, maxRead)
	}
	minErase := id.CmdOverhead + id.Timing.EraseBlock + id.Timing.EraseSuspend + id.Timing.EraseResume
	if eraseEnd < minErase {
		t.Fatalf("erase finished at %v, too early for a suspended erase (min %v)", eraseEnd, minErase)
	}
	st := s.Stats()
	if st.EraseSuspends != 1 {
		t.Fatalf("EraseSuspends = %d, want 1", st.EraseSuspends)
	}
	if dev.Stats().Erases != 1 {
		t.Fatalf("device Erases = %d, want 1", dev.Stats().Erases)
	}
	// The array state must reflect the committed erase.
	if dev.Array().EraseCount(0) != 1 {
		t.Fatalf("block 0 erase count = %d, want 1", dev.Array().EraseCount(0))
	}
}

// TestReadNeverOvertakesProgramToSamePage checks the RAW hazard: a
// prioritized read of a page with a queued program must wait for the
// program, or it would observe the old (erased) state.
func TestReadNeverOvertakesProgramToSamePage(t *testing.T) {
	dev := testDev(1)
	k := sim.New()
	s := New(k, dev, Config{Policy: Priority})
	gcDev := s.Bind(ClassGC)
	rdDev := s.Bind(ClassRead)
	data := make([]byte, 512)
	for i := range data {
		data[i] = 0xAB
	}

	got := make([]byte, 512)
	k.Go("writer", func(p *sim.Proc) {
		w := sim.ProcWaiter{P: p}
		// Occupy the die first so the program queues behind it.
		if err := gcDev.EraseBlock(w, 3); err != nil {
			t.Error(err)
		}
	})
	k.Go("writer2", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		if err := gcDev.ProgramPage(sim.ProcWaiter{P: p}, 0, data, nand.OOB{LPN: 7}); err != nil {
			t.Error(err)
		}
	})
	k.Go("reader", func(p *sim.Proc) {
		p.Sleep(2 * sim.Microsecond)
		if _, err := rdDev.ReadPage(sim.ProcWaiter{P: p}, 0, got); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	k.Shutdown()
	if got[0] != 0xAB {
		t.Fatalf("read returned %#x, want 0xAB: it overtook the program", got[0])
	}
}

// TestSerialCallersBypass checks that ClockWaiter callers skip the
// queues entirely (load phases must not need a running kernel).
func TestSerialCallersBypass(t *testing.T) {
	dev := testDev(1)
	k := sim.New()
	s := New(k, dev, Config{Policy: Priority})
	d := s.Bind(ClassProgram)
	w := &sim.ClockWaiter{}
	if err := d.ProgramPage(w, 0, make([]byte, 512), nand.OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Bind(ClassRead).ReadPage(w, 0, nil); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.TotalScheduled() != 0 {
		t.Fatalf("serial ops were queued: %v", st.Scheduled)
	}
	if st.Bypassed != 2 {
		t.Fatalf("Bypassed = %d, want 2", st.Bypassed)
	}
}

// TestSchedulerDeterminism runs the same op soup twice and expects
// identical device stats and scheduler stats.
func TestSchedulerDeterminism(t *testing.T) {
	run := func() (flash.Stats, Stats) {
		dev := testDev(2)
		k := sim.New()
		s := New(k, dev, Config{Policy: Priority})
		data := make([]byte, 512)
		for i := 0; i < 3; i++ {
			i := i
			cl := []Class{ClassRead, ClassProgram, ClassGC}[i]
			d := s.Bind(cl)
			k.Go("mixer", func(p *sim.Proc) {
				w := sim.ProcWaiter{P: p}
				for j := 0; j < 20; j++ {
					ppn := nand.PPN((i*20 + j) % 64)
					switch cl {
					case ClassRead:
						d.ReadPage(w, ppn, nil)
					case ClassGC:
						if j%5 == 0 {
							d.EraseBlock(w, nand.PBN(8+(j/5)%4))
						} else {
							d.ProgramPage(w, nand.PPN(64+i*20+j), data, nand.OOB{LPN: uint64(j)})
						}
					default:
						d.ProgramPage(w, nand.PPN(128+i*20+j), data, nand.OOB{LPN: uint64(j)})
					}
					p.Sleep(sim.Time(j%7) * sim.Microsecond)
				}
			})
		}
		k.Run()
		k.Shutdown()
		return dev.Stats(), s.Stats()
	}
	d1, s1 := run()
	d2, s2 := run()
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("device stats diverged:\n%+v\n%+v", d1, d2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("scheduler stats diverged:\n%+v\n%+v", s1, s2)
	}
}
