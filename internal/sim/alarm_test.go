package sim

import "testing"

// Alarm parks one process until a deadline that other events may
// preempt. It was the primitive behind interruptible service while the
// command scheduler ran a process per die; sched now keeps the same wait
// as plain state (dieSched.await/interrupt), and Alarm stays here as the
// reference these tests pin and as one of pollMix's event sources: a
// timed callback that wakes its process with a second, delay-0 event.
//
// At most one process may Wait on an Alarm at a time.
type Alarm struct {
	k       *Kernel
	p       *Proc
	waiting bool
	preempt bool
	gen     uint64
}

// NewAlarm returns an Alarm bound to kernel k.
func NewAlarm(k *Kernel) *Alarm { return &Alarm{k: k} }

// Wait parks the calling process until d elapses or Interrupt fires,
// whichever comes first; d < 0 waits for Interrupt alone. It reports
// whether the wait was interrupted before the deadline.
func (a *Alarm) Wait(p *Proc, d Time) bool {
	if a.waiting {
		panic("sim: Alarm.Wait while another wait is active")
	}
	a.gen++
	gen := a.gen
	a.p = p
	a.waiting = true
	a.preempt = false
	if d >= 0 {
		a.k.after(d, nil, func() {
			// A stale deadline (the wait was interrupted, or a newer wait
			// started) must not wake anyone.
			if a.gen != gen || !a.waiting {
				return
			}
			a.waiting = false
			p.wakeLater()
		})
	}
	p.park()
	a.p = nil
	return a.preempt
}

// Interrupt preempts an active Wait; without one it is a no-op (the
// event that would have interrupted is simply not needed).
func (a *Alarm) Interrupt() {
	if !a.waiting {
		return
	}
	a.waiting = false
	a.preempt = true
	a.p.wakeLater()
}

func TestAlarmDeadline(t *testing.T) {
	k := New()
	a := NewAlarm(k)
	var woke Time
	var preempted bool
	k.Go("waiter", func(p *Proc) {
		preempted = a.Wait(p, 5*Millisecond)
		woke = p.Now()
	})
	k.Run()
	if preempted {
		t.Fatal("uninterrupted wait reported preemption")
	}
	if woke != 5*Millisecond {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
}

func TestAlarmInterrupt(t *testing.T) {
	k := New()
	a := NewAlarm(k)
	var woke Time
	var preempted bool
	k.Go("waiter", func(p *Proc) {
		preempted = a.Wait(p, 5*Millisecond)
		woke = p.Now()
	})
	k.Go("poker", func(p *Proc) {
		p.Sleep(1 * Millisecond)
		a.Interrupt()
	})
	k.Run()
	if !preempted {
		t.Fatal("interrupted wait not reported as preempted")
	}
	if woke != 1*Millisecond {
		t.Fatalf("woke at %v, want 1ms", woke)
	}
}

func TestAlarmStaleDeadlineIgnored(t *testing.T) {
	k := New()
	a := NewAlarm(k)
	wakes := 0
	k.Go("waiter", func(p *Proc) {
		a.Wait(p, 5*Millisecond) // interrupted at 1ms
		wakes++
		a.Wait(p, 10*Millisecond) // the stale 5ms deadline must not fire this
		wakes++
		if p.Now() != 11*Millisecond {
			t.Errorf("second wait ended at %v, want 11ms", p.Now())
		}
	})
	k.Go("poker", func(p *Proc) {
		p.Sleep(1 * Millisecond)
		a.Interrupt()
	})
	k.Run()
	if wakes != 2 {
		t.Fatalf("wakes = %d, want 2", wakes)
	}
}

func TestAlarmIndefiniteWait(t *testing.T) {
	k := New()
	a := NewAlarm(k)
	done := false
	k.Go("waiter", func(p *Proc) {
		if !a.Wait(p, -1) {
			t.Error("indefinite wait must report preemption")
		}
		done = true
	})
	k.Go("poker", func(p *Proc) {
		p.Sleep(3 * Millisecond)
		a.Interrupt()
	})
	k.Run()
	if !done {
		t.Fatal("waiter never woke")
	}
}

func TestAlarmInterruptWithoutWaiterIsNoop(t *testing.T) {
	k := New()
	a := NewAlarm(k)
	a.Interrupt() // nothing parked: must not panic or remember
	ran := false
	k.Go("waiter", func(p *Proc) {
		if a.Wait(p, 2*Millisecond) {
			t.Error("wait preempted by a stale interrupt")
		}
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("waiter never ran")
	}
}

func TestSignalFireWakesAllWaiters(t *testing.T) {
	k := New()
	var s Signal
	woke := 0
	for i := 0; i < 3; i++ {
		k.Go("waiter", func(p *Proc) {
			s.Wait(p)
			woke++
			if p.Now() != 2*Millisecond {
				t.Errorf("woke at %v, want 2ms", p.Now())
			}
		})
	}
	k.Go("firer", func(p *Proc) {
		p.Sleep(2 * Millisecond)
		s.Fire()
	})
	k.Run()
	if woke != 3 {
		t.Fatalf("woke = %d, want 3", woke)
	}
}

func TestSignalFireBeforeWait(t *testing.T) {
	k := New()
	var s Signal
	s.Fire()
	ran := false
	k.Go("waiter", func(p *Proc) {
		s.Wait(p) // returns immediately
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("waiter blocked on an already-fired signal")
	}
}
