package sched

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"noftl/internal/nand"
	"noftl/internal/sim"
)

// TestStaleEraseDeadlineDoesNotWakeIdleDie suspends one erase four times.
// Each interrupted slice leaves its deadline in the kernel, still to fire
// — during a later slice, a suspension, or an urgent read — and the last
// one, of the fourth slice, fires when the die has no interruptible wait
// open at all (the fifth slice cannot be suspended). None may count as the
// running slice's end, and afterwards the die must sit idle until the next
// command: seven commands dispatched, the erase ending exactly four
// suspend/resume penalties and four reads late, and as many kernel events
// as the process-based dispatcher fired (its one start event aside).
func TestStaleEraseDeadlineDoesNotWakeIdleDie(t *testing.T) {
	dev := testDev(1)
	id := dev.Identify()
	k := sim.New()
	var events []Event
	s := New(k, dev, Config{Policy: Priority, Trace: func(e Event) { events = append(events, e) }})
	if err := dev.ProgramPage(&sim.ClockWaiter{}, 8, make([]byte, 512), nand.OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	dev.ResetTime()
	dev.ResetStats()

	k.Go("gc", func(p *sim.Proc) {
		if err := s.Bind(ClassGC).EraseBlock(sim.ProcWaiter{P: p}, 0); err != nil {
			t.Error(err)
		}
	})
	k.Go("reader", func(p *sim.Proc) {
		for i := 0; i < maxSuspends+1; i++ { // the fifth read finds the erase uninterruptible
			p.Sleep(200 * sim.Microsecond)
			if _, err := s.Bind(ClassRead).ReadPage(sim.ProcWaiter{P: p}, 8, nil); err != nil {
				t.Error(err)
			}
		}
		p.Sleep(10 * sim.Millisecond) // long after the erase: the die idles
		if _, err := s.Bind(ClassRead).ReadPage(sim.ProcWaiter{P: p}, 8, nil); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if k.Pending() != 0 {
		t.Errorf("%d events pending after Run", k.Pending())
	}
	ks := k.Stats()
	k.Shutdown()

	if len(events) != 7 {
		t.Fatalf("%d commands dispatched, want 7 (erase + 6 reads):\n%+v", len(events), events)
	}
	// The first four reads complete inside the erase, the erase fifth.
	erase, want := events[maxSuspends], id.CmdOverhead+id.Timing.EraseBlock
	for _, e := range events[:maxSuspends] {
		want += id.Timing.EraseSuspend + (e.End - e.Start) + id.Timing.EraseResume
	}
	if erase.Op != "erase" || erase.Suspends != maxSuspends || erase.End != want {
		t.Errorf("erase %+v: want %d suspensions and the end at %v", erase, maxSuspends, want)
	}
	if last := events[len(events)-1]; last.Op != "read" || last.Start != last.Arrival {
		t.Errorf("the read after the idle gap waited: %+v", last)
	}
	// Recorded on the process-based dispatcher (commit 94ff131), less its
	// start event: a stale deadline that woke the die would add events.
	const wantEvents = 36
	if ks.Events != wantEvents {
		t.Errorf("kernel fired %d events, want %d", ks.Events, wantEvents)
	}
	if st := s.Stats(); st.EraseSuspends != maxSuspends || st.TotalScheduled() != 7 {
		t.Errorf("stats %+v", st)
	}
}

// TestSchedulerStartsNoProcess: the dies are state machines, not
// processes.
func TestSchedulerStartsNoProcess(t *testing.T) {
	dev := testDev(2)
	k := sim.New()
	before := k.Alive()
	s := New(k, dev, Config{Policy: Priority})
	if k.Alive() != before || k.Pending() != 0 {
		t.Fatalf("New left %d processes alive (was %d) and %d events pending", k.Alive(), before, k.Pending())
	}
	for i := 0; i < 3; i++ {
		k.Go("submitter", func(p *sim.Proc) {
			w := sim.ProcWaiter{P: p}
			for pg := 0; pg < 4; pg++ {
				if err := s.Bind(ClassProgram).ProgramPage(w, nand.PPN(i*8+pg), nil, nand.OOB{}); err != nil {
					t.Error(err)
				}
			}
			if err := s.Bind(ClassGC).EraseBlock(w, nand.PBN(i)); err != nil {
				t.Error(err)
			}
		})
	}
	k.Run()
	if k.Alive() != 0 {
		t.Errorf("%d processes alive after the submitters exited", k.Alive())
	}
	if st := s.Stats(); st.TotalScheduled() != 15 {
		t.Errorf("scheduled %v, want 15 commands", st.Scheduled)
	}
}

// TestCommandCostsOneResume: a flash command parks its submitter once and
// resumes it once; the die's own events run on the submitter's goroutine,
// so a lone submitter never switches goroutines.
func TestCommandCostsOneResume(t *testing.T) {
	const reads = 1000
	dev := testDev(1)
	if err := dev.ProgramPage(&sim.ClockWaiter{}, 0, nil, nand.OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	k := sim.New()
	rd := New(k, dev, Config{Policy: Priority}).Bind(ClassRead)
	var inside sim.Stats
	k.Go("submitter", func(p *sim.Proc) {
		w, before := sim.ProcWaiter{P: p}, k.Stats()
		for i := 0; i < reads; i++ {
			if _, err := rd.ReadPage(w, 0, nil); err != nil {
				t.Error(err)
			}
		}
		inside = k.Stats()
		inside.Resumes -= before.Resumes
		inside.Switches -= before.Switches
		inside.Events -= before.Events
	})
	k.Run()
	if inside.Resumes != reads || inside.Switches != 0 {
		t.Errorf("%d reads cost %d resumes and %d goroutine switches, want %d and 0", reads, inside.Resumes, inside.Switches, reads)
	}
	// Per read: the idle die's wake, the completion, the submitter's resume.
	if inside.Events != 3*reads {
		t.Errorf("%d reads fired %d events, want %d", reads, inside.Events, 3*reads)
	}
	if total := k.Stats().Resumes; total > reads+1 {
		t.Errorf("%d resumes in all, want at most %d (one per read and the start)", total, reads+1)
	}
}

// TestShutdownWithCommandsInFlight stops the kernel while one submitter is
// parked on a program in service, one on a suspended erase and one on the
// read that suspended it: all three unwind, no goroutine is left, and the
// kernel runs new processes afterwards.
func TestShutdownWithCommandsInFlight(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	dev := testDev(2)
	if err := dev.ProgramPage(&sim.ClockWaiter{}, 8, nil, nand.OOB{LPN: 1}); err != nil {
		t.Fatal(err)
	}
	dev.ResetTime()
	k := sim.New()
	s := New(k, dev, Config{Policy: Priority})
	unwound := 0
	submit := func(name string, delay sim.Time, cmd func(w sim.Waiter) error) {
		k.Go(name, func(p *sim.Proc) {
			defer func() { unwound++ }()
			p.Sleep(delay)
			cmd(sim.ProcWaiter{P: p})
			t.Errorf("%s: its command completed", name)
		})
	}
	die1 := dev.Geometry().FirstPage(8)
	submit("program", 0, func(w sim.Waiter) error { return s.Bind(ClassProgram).ProgramPage(w, die1, nil, nand.OOB{}) })
	submit("erase", 0, func(w sim.Waiter) error { return s.Bind(ClassGC).EraseBlock(w, 0) })
	submit("read", 100*sim.Microsecond, func(w sim.Waiter) error {
		_, err := s.Bind(ClassRead).ReadPage(w, 8, nil)
		return err
	})
	// 100 µs + tSUS/2: the program runs, the erase is suspending, the read queued.
	k.RunUntil(100*sim.Microsecond + dev.Identify().Timing.EraseSuspend/2)
	if ds := s.dies[0]; ds.state != dieSuspend || ds.inErase == nil || len(ds.reqs) != 1 || s.dies[1].state != dieServing {
		t.Fatalf("die 0 in state %d with %d queued, die 1 in state %d: not the states to shut down in", ds.state, len(ds.reqs), s.dies[1].state)
	}
	k.Shutdown()
	if unwound != 3 || k.Alive() != 0 || k.Pending() != 0 {
		t.Errorf("after Shutdown: %d of 3 submitters unwound, %d alive, %d events pending", unwound, k.Alive(), k.Pending())
	}
	for i := 0; runtime.NumGoroutine() > goroutines && i < 100; i++ {
		time.Sleep(time.Millisecond) // the unwound goroutines exit on their own time
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines, %d before the test", n, goroutines)
	}
	ran := false
	k.Go("after", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		ran = true
	})
	k.Run()
	if !ran {
		t.Error("the kernel did not run a process after Shutdown")
	}
}

// TestBlockingTraceHookPanics: the hook runs inside the event loop.
func TestBlockingTraceHookPanics(t *testing.T) {
	dev := testDev(1)
	k := sim.New()
	var submitter *sim.Proc
	s := New(k, dev, Config{Trace: func(Event) { submitter.Sleep(sim.Microsecond) }})
	submitter = k.Go("submitter", func(p *sim.Proc) {
		s.Bind(ClassProgram).ProgramPage(sim.ProcWaiter{P: p}, 0, nil, nand.OOB{})
	})
	defer k.Shutdown()
	defer func() {
		if r := fmt.Sprint(recover()); !strings.Contains(r, "sim: blocking call from an event callback") {
			t.Errorf("Run panicked with %q", r)
		}
	}()
	k.Run()
	t.Error("Run returned: the parking hook went unnoticed")
}
