package sim

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
