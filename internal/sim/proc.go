package sim

import (
	"fmt"
	"runtime/debug"
	"slices"
)

// procKilled is the sentinel panic value used by Shutdown to unwind a
// parked process.
type procKilledError struct{}

func (procKilledError) Error() string { return "sim: process killed by Shutdown" }

var errKilled = procKilledError{}

// Proc is a simulated process: a goroutine scheduled cooperatively by the
// kernel. Only one process executes at any instant, so code between two
// blocking calls (Sleep, Queue.Get, Resource.Acquire) is atomic with
// respect to other processes.
type Proc struct {
	k          *Kernel
	id         uint64
	name       string
	wake       chan struct{}
	parked     bool
	killed     bool
	terminated bool
	// Parked in Poll: what the kernel tests on its behalf, and how often.
	ready func() bool
	every Time
}

// Go starts a new process running fn. The process begins executing at the
// current simulated time, after already-scheduled events for that time.
// It may be called from process context or from outside Run.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	k.seq++
	// Parked from birth: a Shutdown before the first resume must still
	// unwind the goroutine (through the killed check below).
	p := &Proc{k: k, id: k.seq, name: name, wake: make(chan struct{}), parked: true}
	k.procs = append(k.procs, p)
	go func() {
		defer func() {
			p.terminated = true
			k.procs = slices.DeleteFunc(k.procs, func(q *Proc) bool { return q == p })
			if r := recover(); r != nil {
				if _, ok := r.(procKilledError); !ok {
					// Preserve the process's stack; the kernel re-panics
					// on its own goroutine, which would otherwise lose it.
					k.panicv = fmt.Sprintf("%v\nprocess %q stack:\n%s", r, p.name, debug.Stack())
					k.trapped = true
				}
			}
			k.yielded <- struct{}{}
		}()
		<-p.wake
		if p.killed {
			panic(errKilled)
		}
		fn(p)
	}()
	k.at(k.now, p, nil)
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
	if d < 0 {
		d = 0
	}
	p.k.at(p.k.now+d, p, nil)
	p.park()
}

// SleepUntil suspends the process until simulated time t (no-op if t is
// in the past).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.k.now {
		p.Sleep(0)
		return
	}
	p.Sleep(t - p.k.now)
}

// Yield lets every other event scheduled for the current instant run.
func (p *Proc) Yield() { p.Sleep(0) }

// Poll suspends the process until ready reports true, testing it now and
// then once every d: for !ready() { p.Sleep(d) } at the same simulated
// instants and in the same event order. Only the first test runs on the
// process; later ones run inside the kernel, where a false one re-arms
// the tick without a goroutine switch — so ready must not block and must
// not change simulated state.
func (p *Proc) Poll(d Time, ready func() bool) {
	if ready() {
		return
	}
	if d < 0 {
		d = 0
	}
	p.ready, p.every = ready, d
	p.k.at(p.k.now+d, p, nil)
	p.park()
}

// park hands control back to the kernel without scheduling a wake-up.
// Something else (an event, Queue.Put, Resource.Release, Shutdown) must
// later call k.resume(p).
func (p *Proc) park() {
	p.parked = true
	p.k.yielded <- struct{}{}
	<-p.wake
	if p.killed {
		panic(errKilled)
	}
}

// wakeLater schedules p to resume at the current instant (FIFO after
// already-pending events).
func (p *Proc) wakeLater() {
	p.k.at(p.k.now, p, nil)
}
