package sim

import (
	"math"
	"slices"
)

// event is one scheduled occurrence, stored by value in the kernel's
// heap or in its zero-delay FIFO. Exactly one of p and fn is set: p names
// a process to resume, fn is an After callback. Events fire in (at, seq)
// order; seq is unique, so the order is total and the simulation
// deterministic.
type event struct {
	at  Time
	seq uint64
	p   *Proc
	fn  func()
}

func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// lane is the FIFO of the events scheduled without delay. The clock never
// runs backwards and seq only grows, so it is in (at, seq) order as
// pushed: its events join at the tail and fire from the head without ever
// being sifted. buf is a ring whose length is a power of two.
type lane struct {
	buf  []event
	head int // index of the earliest event
	n    int // events queued
}

func (l *lane) push(e event) {
	if l.n == len(l.buf) {
		// Full (or new): unroll into a ring twice the size.
		buf := make([]event, max(8, 2*len(l.buf)))
		m := copy(buf, l.buf[l.head:])
		copy(buf[m:], l.buf[:l.head])
		l.buf, l.head = buf, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = e
	l.n++
}

// pop removes and returns the lane's earliest event, zeroing its slot.
func (l *lane) pop() event {
	e := l.buf[l.head]
	l.buf[l.head] = event{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	return e
}

// Stats counts what the simulator did, as opposed to what it simulated.
type Stats struct {
	Events     uint64 // events fired, stale deadlines included
	Resumes    uint64 // transfers of control to a process
	Switches   uint64 // hand-offs between seats: resumes of another process, returns to the driver
	MaxPending int    // most events that have been pending at once
}

// Run limits: Run's admits every event, Shutdown's none.
const (
	forever Time = math.MaxInt64
	never   Time = -1
)

// Kernel is a deterministic discrete-event scheduler. The zero value is
// not usable; create kernels with New.
//
// There is no kernel goroutine. Each process body is a coroutine, and
// only the driver — whoever called Run, RunUntil or Shutdown — resumes
// one. The event loop (dispatch) runs on whichever stack just gave up the
// processor: a process that parked or terminated, or the driver.
type Kernel struct {
	now      Time
	seq      uint64
	limit    Time    // dispatch fires nothing due after it
	events   []event // 4-ary min-heap on (at, seq): timed sleeps, deadlines and After callbacks
	fifo     lane    // the events scheduled without delay
	pending  int     // events in the heap and the lane together
	heapOnly bool    // tests: bypass the lane, to compare its order with the heap's
	driver   *Proc   // the seat of whoever calls Run, RunUntil or Shutdown
	handTo   *Proc   // whom the last process to yield to the driver handed the processor
	firing   bool    // the event loop is on the stack: callbacks run now
	procs    []*Proc // started and not yet terminated, in id order
	stats    Stats
	panicv   any
	trapped  bool
}

// New returns an empty kernel at time zero.
func New() *Kernel {
	k := &Kernel{}
	k.driver = &Proc{k: k, name: "driver"}
	return k
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Alive reports the number of processes that have started and not yet
// terminated.
func (k *Kernel) Alive() int { return len(k.procs) }

// Pending reports the number of scheduled, not yet fired events.
func (k *Kernel) Pending() int { return k.pending }

// Stats returns the kernel's counters since New.
func (k *Kernel) Stats() Stats { return k.stats }

// After schedules fn to run d after the current time. It may be called
// from process context or from outside Run. Negative delays fire
// immediately (at the current time). fn runs on whichever stack holds
// the event loop, so it must not block; a panic in it surfaces from Run.
func (k *Kernel) After(d Time, fn func()) { k.after(d, nil, fn) }

// after schedules p's resumption (or fn) d from now under the next seq:
// without delay in the lane, otherwise on the heap.
func (k *Kernel) after(d Time, p *Proc, fn func()) {
	if d <= 0 {
		k.enqueue(p, fn)
		return
	}
	k.push(k.draw(k.now+d, p, fn))
}

// enqueue schedules p's resumption (or fn) at the current instant, behind
// every event already due then.
func (k *Kernel) enqueue(p *Proc, fn func()) {
	e := k.draw(k.now, p, fn)
	if k.heapOnly {
		k.push(e)
		return
	}
	k.fifo.push(e)
}

// push adds e to the heap.
func (k *Kernel) push(e event) {
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
}

// draw makes the event for time t under the next seq and counts it
// pending.
func (k *Kernel) draw(t Time, p *Proc, fn func()) event {
	k.seq++
	k.pending++
	k.stats.MaxPending = max(k.stats.MaxPending, k.pending)
	return event{at: t, seq: k.seq, p: p, fn: fn}
}

// pop removes and returns the heap's earliest event. The vacated slot is
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

// next removes and returns the earliest pending event — the lesser of
// the heap's top and the lane's head — unless none is due by the limit.
func (k *Kernel) next() (e event, ok bool) {
	var first *event
	if len(k.events) > 0 {
		first = &k.events[0]
	}
	fromLane := false
	if l := &k.fifo; l.n > 0 {
		if h := &l.buf[l.head]; first == nil || h.before(first) {
			first, fromLane = h, true
		}
	}
	if first == nil || first.at > k.limit {
		return e, false
	}
	k.pending--
	if fromLane {
		return k.fifo.pop(), true
	}
	return k.pop(), true
}

// Run executes events until the queue drains. Processes blocked on a
// queue or resource with no future wake-up are left parked; call
// Shutdown to unwind them.
func (k *Kernel) Run() { k.run(forever) }

// RunUntil executes all events scheduled at or before t, then advances
// the clock to t.
func (k *Kernel) RunUntil(t Time) {
	k.run(t)
	if k.now < t {
		k.now = t
	}
}

// RunFor executes events for the next d of simulated time.
func (k *Kernel) RunFor(d Time) { k.RunUntil(k.now + d) }

// run gives the processor away until nothing due by limit is left, then
// re-raises what a process or callback panicked with.
func (k *Kernel) run(limit Time) {
	k.limit = limit
	k.dispatch(k.driver)
	if k.trapped {
		v := k.panicv
		k.trapped, k.panicv = false, nil
		panic(v)
	}
}

// dispatch is the event loop. self has just given up the processor (a
// process that parked or terminated, or the driver); dispatch returns
// once self is to run again. If the next process to resume is self it
// returns at once: nothing switched. A process hands any other one to
// the driver, which resumes it (drive); unless self terminated, its
// coroutine stays suspended until the driver resumes it in turn.
func (k *Kernel) dispatch(self *Proc) {
	to := k.fire()
	if to == self {
		return
	}
	if self == k.driver {
		k.drive(to)
		return
	}
	k.stats.Switches++
	k.handTo = to
	if !self.terminated {
		self.yield(struct{}{})
	}
}

// drive hands the driver's processor to p and resumes processes on the
// driver's goroutine, p first, each until it yields or ends, then
// whichever it handed the processor to, until one hands it back.
func (k *Kernel) drive(p *Proc) {
	k.stats.Switches++
	for p != k.driver {
		p.resume()
		p = k.handTo
	}
}

// fire runs events in (at, seq) order until one resumes a process, and
// returns that process. It returns the driver when no event due by the
// limit is left, or when a panic is pending: a callback runs on whatever
// stack holds the loop, so its panic is trapped here — it must not unwind
// that bystander's stack — and re-raised by run on the driver, like a
// process's own.
//
// An event drawn before its process last resumed is stale: the deadline
// of a wait that a Wake or Grant ended first. It resumes nobody. A live
// event for a process still on a WaitQueue is that wait's deadline: it
// takes the process off the queue, expired.
func (k *Kernel) fire() (to *Proc) {
	k.firing = true
	defer func() {
		k.firing = false
		if r := recover(); r != nil {
			k.panicv, k.trapped = r, true
			to = k.driver
		}
	}()
	for !k.trapped {
		e, ok := k.next()
		if !ok {
			break
		}
		if e.at > k.now {
			k.now = e.at
		}
		k.stats.Events++
		if e.fn != nil {
			e.fn()
			continue
		}
		p := e.p
		if p.terminated || e.seq <= p.since {
			continue
		}
		if p.q != nil {
			p.q.remove(p)
			p.expired = true
		}
		k.resuming(p)
		return p
	}
	return k.driver
}

// resuming marks p as about to run: whatever it waited for, it is not
// parked now, and every event drawn so far is too old to resume it.
func (k *Kernel) resuming(p *Proc) {
	p.parked, p.since = false, k.seq
	k.stats.Resumes++
}

// Shutdown unwinds every parked process (their deferred functions run)
// and clears the event queue. The kernel remains usable afterwards.
func (k *Kernel) Shutdown() {
	// With nothing due, a process that parks again while it unwinds hands
	// straight back instead of running events.
	k.limit = never
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
		k.resuming(p)
		k.drive(p)
	}
	k.events, k.fifo, k.pending = nil, lane{}, 0
}
