package sim

import (
	"fmt"
	"slices"
)

// event is one scheduled occurrence, stored by value in the kernel's
// heap. Exactly one of p and fn is set: p names a process to resume (or,
// parked in Poll, to test on its behalf); fn is an After or Alarm
// callback. Events fire in (at, seq) order; seq is unique, so the order
// is total and the simulation deterministic.
type event struct {
	at  Time
	seq uint64
	p   *Proc
	fn  func()
}

func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Stats counts what the simulator did, as opposed to what it simulated.
type Stats struct {
	Events     uint64 // events fired
	PollTicks  uint64 // Poll ticks found false and re-armed without leaving the kernel
	Resumes    uint64 // transfers of control to a process
	MaxPending int    // deepest the event heap has been
}

// Kernel is a deterministic discrete-event scheduler. The zero value is
// not usable; create kernels with New.
type Kernel struct {
	now     Time
	seq     uint64
	events  []event       // 4-ary min-heap on (at, seq)
	yielded chan struct{} // signalled by a process when it hands control back
	procs   []*Proc       // started and not yet terminated, in id order
	stats   Stats
	panicv  any
	trapped bool
}

// New returns an empty kernel at time zero.
func New() *Kernel { return &Kernel{yielded: make(chan struct{})} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Alive reports the number of processes that have started and not yet
// terminated.
func (k *Kernel) Alive() int { return len(k.procs) }

// Pending reports the number of scheduled, not yet fired events.
func (k *Kernel) Pending() int { return len(k.events) }

// Stats returns the kernel's counters since New.
func (k *Kernel) Stats() Stats { return k.stats }

// After schedules fn to run d after the current time. It may be called
// from process context or from outside Run. Negative delays fire
// immediately (at the current time).
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	k.at(k.now+d, nil, fn)
}

// at schedules p's resumption (or fn) for time t under the next seq.
func (k *Kernel) at(t Time, p *Proc, fn func()) {
	k.seq++
	e := event{at: t, seq: k.seq, p: p, fn: fn}
	h := append(k.events, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	k.events = h
	k.stats.MaxPending = max(k.stats.MaxPending, len(h))
}

// pop removes and returns the earliest event. The vacated slot is
// zeroed so the backing array pins neither processes nor closures.
func (k *Kernel) pop() event {
	h := k.events
	n := len(h) - 1
	top, last := h[0], h[n]
	h[n] = event{}
	h = h[:n]
	i := 0
	for c := 1; c < n; c = 4*i + 1 {
		m := c // the earliest of i's children
		for j := c + 1; j < min(c+4, n); j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	k.events = h
	return top
}

// Run executes events until the queue drains. Processes blocked on a
// queue or resource with no future wake-up are left parked; call
// Shutdown to unwind them.
func (k *Kernel) Run() {
	for len(k.events) > 0 {
		k.step()
	}
}

// RunUntil executes all events scheduled at or before t, then advances
// the clock to t.
func (k *Kernel) RunUntil(t Time) {
	for len(k.events) > 0 && k.events[0].at <= t {
		k.step()
	}
	if k.now < t {
		k.now = t
	}
}

// RunFor executes events for the next d of simulated time.
func (k *Kernel) RunFor(d Time) { k.RunUntil(k.now + d) }

func (k *Kernel) step() {
	e := k.pop()
	if e.at > k.now {
		k.now = e.at
	}
	k.stats.Events++
	if e.fn != nil {
		e.fn()
	} else if p := e.p; p.ready != nil && !p.ready() {
		// A Poll tick whose condition is still false: re-arm on the
		// process's behalf, under the seq its own Sleep would have
		// drawn, and never switch to its goroutine.
		k.stats.PollTicks++
		k.at(k.now+p.every, p, nil)
	} else {
		k.resume(p)
	}
	if k.trapped {
		v := k.panicv
		k.trapped = false
		k.panicv = nil
		panic(fmt.Sprintf("sim: process panic: %v", v))
	}
}

// Shutdown unwinds every parked process (their deferred functions run)
// and clears the event queue. The kernel remains usable afterwards.
func (k *Kernel) Shutdown() {
	// Killing a process runs its defers, which may park other processes
	// or schedule events, so rescan until quiescent; lowest id first
	// keeps the unwind order deterministic.
	for {
		i := slices.IndexFunc(k.procs, func(q *Proc) bool { return q.parked })
		if i < 0 {
			break
		}
		p := k.procs[i]
		p.killed = true
		k.resume(p)
	}
	k.events = nil
}

// resume transfers control to p and blocks until p parks or terminates.
func (k *Kernel) resume(p *Proc) {
	if p.terminated {
		return
	}
	p.parked, p.ready = false, nil // whatever it waited for, it is not polling now
	k.stats.Resumes++
	p.wake <- struct{}{}
	<-k.yielded
}
