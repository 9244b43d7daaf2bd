package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"slices"
)

// procKilled is the sentinel panic value used by Shutdown to unwind a
// parked process.
type procKilledError struct{}

func (procKilledError) Error() string { return "sim: process killed by Shutdown" }

var errKilled = procKilledError{}

// Proc is a simulated process: a coroutine scheduled cooperatively by the
// kernel. Only one process executes at any instant, so code between two
// blocking calls (Sleep, Queue.Get, Resource.Acquire) is atomic with
// respect to other processes.
type Proc struct {
	k          *Kernel
	id         uint64
	name       string
	resume     func() (struct{}, bool) // the driver's side: run the body until it yields or ends
	yield      func(struct{}) bool     // the body's side: suspend, back to the driver
	parked     bool
	killed     bool
	terminated bool
	since      uint64 // the kernel's seq when it last resumed: events drawn until then are stale
	// Waiting on a WaitQueue: the queue, its neighbours there, and whether
	// the deadline took it off.
	q            *WaitQueue
	qprev, qnext *Proc
	expired      bool
}

// Go starts a new process running fn. The process begins executing at the
// current simulated time, after already-scheduled events for that time.
// It may be called from process context or from outside Run.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	k.seq++
	// Parked from birth: a Shutdown before the first resume must still
	// unwind the coroutine (through the killed check below).
	p := &Proc{k: k, id: k.seq, name: name, parked: true}
	k.procs = append(k.procs, p)
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.terminated = true
			k.procs = slices.DeleteFunc(k.procs, func(q *Proc) bool { return q == p })
			if r := recover(); r != nil {
				if _, ok := r.(procKilledError); !ok {
					// Preserve the process's stack; Run re-panics on the
					// driver's goroutine, which would otherwise lose it.
					k.panicv = fmt.Sprintf("sim: process panic: %v\nprocess %q stack:\n%s", r, p.name, debug.Stack())
					k.trapped = true
				}
			}
			k.dispatch(p) // pass the processor on; this coroutine is done
		}()
		if p.killed {
			panic(errKilled)
		}
		fn(p)
	})
	k.enqueue(p, nil)
	return p
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep suspends the process for d of simulated time. d <= 0 yields the
// processor: the process resumes at the same instant after other events
// already scheduled for it.
func (p *Proc) Sleep(d Time) {
	p.k.after(d, p, nil)
	p.park()
}

// SleepUntil suspends the process until simulated time t (a Sleep(0) if t is
// not in the future).
func (p *Proc) SleepUntil(t Time) { p.Sleep(t - p.k.now) }

// park gives up the processor without scheduling a wake-up and runs the
// event loop until an event — one scheduled before the call, or by a
// WaitQueue's Wake or Grant since — resumes p, or Shutdown kills it.
func (p *Proc) park() {
	if p.k.firing { // reached from a callback, which has no process to park
		panic("sim: blocking call from an event callback")
	}
	p.parked = true
	p.k.dispatch(p)
	if p.killed {
		if p.q != nil {
			p.q.remove(p) // Shutdown: no Grant may hand anything to a dead process
		}
		panic(errKilled)
	}
}

// wakeLater schedules p to resume at the current instant (FIFO after
// already-pending events).
func (p *Proc) wakeLater() { p.k.enqueue(p, nil) }
