package sim

import (
	//noftl:ignore onethread RealWaiter is safe for concurrent use by goroutines outside the simulation
	"sync"
	"time"
)

// Waiter is how a simulated device makes a caller experience latency,
// independent of execution mode. Device code computes an operation's
// completion time from its resource timelines and calls WaitUntil; the
// Waiter decides what "waiting" means:
//
//   - ProcWaiter: suspend a DES process (virtual time, deterministic).
//   - ClockWaiter: advance a private serial clock (counting-only replays).
//   - RealWaiter: sleep on the wall clock (live demos, the paper's
//     real-time emulator mode).
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

// RealWaiter maps the simulated timeline onto the wall clock, optionally
// scaled (Scale 2 runs twice as fast as real time; 0 means 1).
// It is safe for concurrent use by multiple goroutines.
type RealWaiter struct {
	start time.Time
	scale float64
	once  sync.Once
}

// NewRealWaiter returns a wall-clock Waiter. scale > 1 compresses time
// (the simulation runs faster than real time); scale <= 0 means 1.
func NewRealWaiter(scale float64) *RealWaiter {
	if scale <= 0 {
		scale = 1
	}
	return &RealWaiter{scale: scale}
}

//noftl:ignore determinism RealWaiter is the sanctioned wall-clock bridge: it exists to pace a sim against real time
func (w *RealWaiter) init() { w.once.Do(func() { w.start = time.Now() }) }

// Now returns the elapsed wall-clock time since first use, scaled.
func (w *RealWaiter) Now() Time {
	w.init()
	//noftl:ignore determinism RealWaiter maps the simulated timeline onto the wall clock by design
	return Time(float64(time.Since(w.start)) * w.scale)
}

// WaitUntil sleeps until the scaled wall clock reaches t.
func (w *RealWaiter) WaitUntil(t Time) {
	w.init()
	for {
		now := w.Now()
		if now >= t {
			return
		}
		//noftl:ignore timedretry RealWaiter paces the simulation against the wall clock; no process can wake it
		time.Sleep(time.Duration(float64(t-now) / w.scale))
	}
}

// Proc returns nil: the wall clock is no process.
func (w *RealWaiter) Proc() *Proc { return nil }
