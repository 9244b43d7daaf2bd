// Package sim provides a deterministic discrete-event simulation (DES)
// kernel: a virtual clock, cooperatively scheduled processes, FCFS
// resources and mailbox queues.
//
// The kernel executes exactly one process at a time and orders events by
// (time, insertion sequence), so a simulation with fixed seeds is fully
// deterministic. It has no goroutine of its own: processes are
// coroutines resumed by the caller of Run, and the event loop runs on
// whichever process just parked (or on that caller), so waking another
// process is two coroutine switches, through the caller, and waking
// oneself is none; events due at once (wake-ups, Yield) queue in a FIFO,
// only timed sleeps and deadlines in the heap. A process that waits for
// another — for a latch, a lock, a flush, work — parks on a WaitQueue,
// and whoever releases what it waits for hands off to it at that instant
// (DESIGN.md "Simulation kernel"). This is the offline twin of the
// paper's real-time flash emulator: every experiment runs the device
// model in virtual time, and nothing in the package reads the wall clock.
package sim

import "fmt"

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Duration constants in simulated time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the time with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }
