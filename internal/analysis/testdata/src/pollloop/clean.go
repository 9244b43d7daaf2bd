// Nothing in this file may produce a diagnostic: these are the
// sanctioned forms of the patterns flagged.go gets caught on.
package pollloop

import "noftl/internal/sim"

const cmdOverhead = 20 * sim.Microsecond

// Acquire2 waits for the latch the kernel-resident way.
func (l *latch) Acquire2(w sim.Waiter) {
	w.Poll(20*sim.Microsecond, func() bool { return !l.held })
	l.held = true
}

// Submit charges a fixed host-interface overhead once per command: a
// one-shot relative wait outside any loop is not a poll.
func Submit(w sim.Waiter) {
	w.WaitUntil(w.Now() + cmdOverhead)
}

// Drain waits for absolute completion times in a loop; nothing is
// re-tested on a period.
func Drain(w sim.Waiter, ends []sim.Time) {
	for _, end := range ends {
		w.WaitUntil(end)
	}
}

// Deferred builds its wait inside a loop but runs it once per call of
// the literal, not once per iteration.
func Deferred(w sim.Waiter, n int) []func() {
	var fns []func()
	for i := 0; i < n; i++ {
		fns = append(fns, func() { w.WaitUntil(w.Now() + cmdOverhead) })
	}
	return fns
}

// Reclaim backs off under a spin budget — the loop gives up after 64
// tries, which Poll cannot express — and says so.
func (l *latch) Reclaim(w sim.Waiter) bool {
	for spin := 0; l.held; spin++ {
		if spin > 64 {
			return false
		}
		w.WaitUntil(w.Now() + cmdOverhead) //noftl:ignore pollloop spin budget: gives up after 64 tries
	}
	return true
}
