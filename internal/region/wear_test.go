package region

import (
	"noftl/internal/ioreq"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/sched"
	"noftl/internal/sim"
)

// TestRegionEraseStats checks the per-region erase-count reporting the
// wear-leveling sweep consumes: erasing blocks in one region must show
// up in that region's spread/average and leave the other untouched.
func TestRegionEraseStats(t *testing.T) {
	dev := flash.New(flash.EmulatorConfig(4, 16, nand.SLC))
	m, err := New(dev, DefaultDBLayout(1), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	logRegion := m.Region("log")
	if logRegion == nil {
		t.Fatal("no log region")
	}
	// Erase a few blocks of the log region's first die directly.
	w := &sim.ClockWaiter{}
	geo := dev.Geometry()
	die := logRegion.Dies[0]
	for b := 0; b < 3; b++ {
		if err := dev.EraseBlock(w, geo.PBNOf(die, 0, b)); err != nil {
			t.Fatal(err)
		}
	}
	for _, rs := range m.RegionStats() {
		switch rs.Name {
		case "log":
			if rs.MaxErase != 1 || rs.MinErase != 0 {
				t.Fatalf("log erase stats = min %d max %d, want 0/1", rs.MinErase, rs.MaxErase)
			}
			if rs.AvgErase <= 0 {
				t.Fatalf("log avg erase = %f, want > 0", rs.AvgErase)
			}
		case "data":
			if rs.MaxErase != 0 || rs.AvgErase != 0 {
				t.Fatalf("data region inherited erases: %+v", rs)
			}
		}
	}
}

// TestRegionSchedulerWiring checks that regions built on a scheduler's
// Dev route their traffic through it: commands issued by DES processes
// are queued, serial loads bypass.
func TestRegionSchedulerWiring(t *testing.T) {
	dev := flash.New(flash.EmulatorConfig(4, 16, nand.SLC))
	k := sim.New()
	s := sched.New(k, dev, sched.Config{Policy: sched.Priority})
	m, err := New(dev, DefaultDBLayout(1), s.Dev(), true)
	if err != nil {
		t.Fatal(err)
	}
	data, wal, err := m.Mount()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, dev.Geometry().PageSize)

	// Serial write: must bypass the queues.
	if err := data.Vol.Write(ioreq.Plain(&sim.ClockWaiter{}), 0, buf); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.TotalScheduled() != 0 {
		t.Fatalf("serial write was queued: %v", st.Scheduled)
	}

	// DES writes: volume programs dispatch at their op type's class, the
	// log append at the WAL class it declares (as every WAL write does).
	k.Go("client", func(p *sim.Proc) {
		w := sim.ProcWaiter{P: p}
		if err := data.Vol.Write(ioreq.Plain(w), 1, buf); err != nil {
			t.Error(err)
		}
		if err := data.Vol.Read(ioreq.Plain(w), 1, buf); err != nil {
			t.Error(err)
		}
		if _, err := wal.Log.Append(ioreq.Req{W: w, Class: ioreq.ClassWAL}, buf); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	k.Shutdown()
	st := s.Stats()
	if st.Scheduled[sched.ClassProgram] == 0 {
		t.Fatal("data program not scheduled as ClassProgram")
	}
	if st.Scheduled[sched.ClassRead] == 0 {
		t.Fatal("read not scheduled as ClassRead")
	}
	if st.Scheduled[sched.ClassWAL] == 0 {
		t.Fatal("log append not scheduled as ClassWAL")
	}
}
