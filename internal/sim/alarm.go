package sim

// Alarm parks one process until a deadline that other events may
// preempt. It is the primitive behind interruptible service: a command
// scheduler's die dispatcher sleeps on an Alarm while an erase runs, and
// an arriving high-priority command calls Interrupt to suspend the erase
// mid-flight.
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

// Signal is a one-shot completion event between processes: Wait parks
// callers until Fire, which wakes them all in the order they arrived.
// Firing before anyone waits is remembered — later Waits return
// immediately. The zero value is ready to use.
type Signal struct {
	fired bool
	first *Proc   // the first waiter, held inline: a flash command has exactly one
	rest  []*Proc // any further waiters
}

// Fire marks the signal done and wakes every waiter. Firing twice is a
// no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	if s.first != nil {
		s.first.wakeLater()
	}
	for _, p := range s.rest {
		p.wakeLater()
	}
	s.first, s.rest = nil, nil
}

// Wait parks p until the signal fires (immediately if it already has).
func (s *Signal) Wait(p *Proc) {
	for !s.fired {
		if s.first == nil {
			s.first = p
		} else {
			s.rest = append(s.rest, p)
		}
		p.park()
	}
}
