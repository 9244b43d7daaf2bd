// Every declaration in this file must produce a diagnostic (see
// expect.txt); clean.go holds the sanctioned counterparts.
package pollloop

import (
	"noftl/internal/ioreq"
	"noftl/internal/sim"
)

type latch struct{ held bool }

// Acquire re-tests a pure read of simulated state every 20µs on its own
// process: each tick is a goroutine round trip that Waiter.Poll avoids.
func (l *latch) Acquire(w sim.Waiter) {
	for l.held {
		w.WaitUntil(w.Now() + 20*sim.Microsecond)
	}
	l.held = true
}

// AcquireOnRequest is the same loop on the request descriptor lower
// layers are handed.
func (l *latch) AcquireOnRequest(rq *ioreq.Req) {
	for {
		if !l.held {
			break
		}
		rq.WaitUntil((rq.Now()) + sim.Millisecond)
	}
	l.held = true
}
