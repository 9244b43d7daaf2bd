package sim

// Signal is a one-shot completion event between processes: Wait parks
// callers until Fire, which wakes them all in the order they arrived.
// Firing before anyone waits is remembered — later Waits return
// immediately. The zero value is ready to use.
type Signal struct {
	fired   bool
	waiters WaitQueue
}

// Fire marks the signal done and wakes every waiter. Firing twice is a
// no-op.
func (s *Signal) Fire() {
	if !s.fired {
		s.fired = true
		s.waiters.Wake()
	}
}

// Wait parks p until the signal fires (immediately if it already has).
func (s *Signal) Wait(p *Proc) {
	if !s.fired {
		s.waiters.Wait(ProcWaiter{P: p}, 0)
	}
}
