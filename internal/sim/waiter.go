package sim

// Waiter is how a simulated device makes a caller experience latency,
// independent of execution mode. Device code computes an operation's
// completion time from its resource timelines and calls WaitUntil; the
// Waiter decides what "waiting" means:
//
//   - ProcWaiter: suspend a DES process (virtual time, deterministic).
//   - ClockWaiter: advance a private serial clock (counting-only replays).
type Waiter interface {
	// Now returns the caller's current time on the simulated timeline.
	Now() Time
	// WaitUntil blocks the caller until time t. t earlier than Now is a
	// no-op.
	WaitUntil(t Time)
	// Proc returns the process that experiences the wait, or nil for a
	// processless clock: only a process can park on a WaitQueue.
	Proc() *Proc
}

// ProcWaiter adapts a DES process to the Waiter interface.
type ProcWaiter struct{ P *Proc }

// Now returns the kernel's current simulated time.
func (w ProcWaiter) Now() Time { return w.P.Now() }

// WaitUntil suspends the process until simulated time t.
func (w ProcWaiter) WaitUntil(t Time) { w.P.SleepUntil(t) }

// Proc returns the process.
func (w ProcWaiter) Proc() *Proc { return w.P }

// ClockWaiter is a serial virtual clock: each WaitUntil simply advances
// the clock. It models a single synchronous client and costs nothing,
// which makes it the right Waiter for offline trace replays where only
// operation counts and aggregate busy time matter.
type ClockWaiter struct{ T Time }

// Now returns the clock's current value.
func (w *ClockWaiter) Now() Time { return w.T }

// WaitUntil advances the clock to t if t is later.
func (w *ClockWaiter) WaitUntil(t Time) {
	if t > w.T {
		w.T = t
	}
}

// Proc returns nil: the clock is no process.
func (w *ClockWaiter) Proc() *Proc { return nil }
