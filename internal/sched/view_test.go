package sched

import (
	"testing"

	"noftl/internal/flash"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// TestDevDispatchesAtDeclaredElseOpClass pins the one class rule of
// Scheduler.Dev for all five ops: a command whose request declares a
// class dispatches at it, an undeclared one at its op type's class, and
// a serial caller bypasses the queues whatever it declares.
func TestDevDispatchesAtDeclaredElseOpClass(t *testing.T) {
	opDefault := map[string]Class{
		"read": ClassRead, "program": ClassProgram, "partial": ClassProgram,
		"erase": ClassGC, "copyback": ClassGC,
	}
	// ops issues each op once: program, partial and copyback into fresh
	// pages, a read of the programmed page, an erase of its block.
	ops := func(d flash.Dev, w sim.Waiter) error {
		data := make([]byte, 512)
		if err := d.ProgramPage(w, 0, data, nand.OOB{LPN: 1}); err != nil {
			return err
		}
		if err := d.ProgramPartial(w, 1, 0, data[:64], nand.OOB{LPN: 2}); err != nil {
			return err
		}
		if _, err := d.ReadPage(w, 0, nil); err != nil {
			return err
		}
		if err := d.Copyback(w, 0, 8, nand.OOB{LPN: 1}); err != nil {
			return err
		}
		return d.EraseBlock(w, 0)
	}
	for _, tc := range []struct {
		name     string
		declared ioreq.Class
	}{
		{"undeclared", ioreq.ClassDefault},
		{"declared-prefetch", ioreq.ClassPrefetch},
		{"declared-wal", ioreq.ClassWAL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New()
			defer k.Shutdown()
			var evs []Event
			s := New(k, testDev(1), Config{Policy: Priority, Trace: func(ev Event) { evs = append(evs, ev) }})
			k.Go("client", func(p *sim.Proc) {
				if err := ops(s.Dev(), &ioreq.Req{W: sim.ProcWaiter{P: p}, Class: tc.declared}); err != nil {
					t.Error(err)
				}
			})
			k.Run()
			if len(evs) != len(opDefault) {
				t.Fatalf("dispatched %d commands, want %d", len(evs), len(opDefault))
			}
			for _, ev := range evs {
				want, declared := FromRequest(tc.declared)
				if !declared {
					want = opDefault[ev.Op]
				}
				if ev.Class != want {
					t.Errorf("%s dispatched at %v, want %v", ev.Op, ev.Class, want)
				}
			}
		})
	}
	t.Run("serial", func(t *testing.T) {
		k := sim.New()
		defer k.Shutdown()
		s := New(k, testDev(1), Config{Policy: Priority})
		if err := ops(s.Dev(), &ioreq.Req{W: &sim.ClockWaiter{}, Class: ioreq.ClassGC}); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.TotalScheduled() != 0 || st.Bypassed != int64(len(opDefault)) {
			t.Fatalf("serial ops: scheduled %v, bypassed %d; want none queued, %d bypassed",
				st.Scheduled, st.Bypassed, len(opDefault))
		}
	})
}
