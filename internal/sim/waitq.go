package sim

// WaitQueue is the kernel's one hand-off primitive: a FIFO of processes
// parked until whoever changes what they wait for releases them. Wake
// releases every waiter (a condition may have changed: each re-checks
// it); Grant releases the head waiter alone (the releaser hands it the
// resource, which never becomes observable as free). A released process
// resumes at the release instant, behind the events already due then.
//
// The queue is intrusive — it links the processes themselves — so a wait
// allocates nothing, and a process waits on one queue at a time. The zero
// value is an empty queue.
type WaitQueue struct{ head, tail *Proc }

// Wait parks w's process at the tail until Wake or Grant releases it, or
// until the deadline passes (0: none). It reports whether it was released
// rather than expired; a deadline at or before now expires at once. The
// deadline is one heap event that fires at its exact instant; if a
// release comes first the event goes stale and resumes nobody, however
// the process waits by the time it fires.
//
// A processless waiter (ClockWaiter) is its clock's only
// user, so nothing can ever release it: it advances to the deadline and
// reports expiry, and without a deadline it panics.
func (q *WaitQueue) Wait(w Waiter, deadline Time) bool {
	p := w.Proc()
	if p == nil {
		if deadline <= 0 {
			panic("sim: wait on a processless clock that nothing can end")
		}
		w.WaitUntil(deadline)
		return false
	}
	k := p.k
	if deadline > 0 {
		if deadline <= k.now {
			return false
		}
		k.push(k.draw(deadline, p, nil))
	}
	p.q, p.qprev, p.qnext, p.expired = q, q.tail, nil, false
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.qnext = p
	}
	q.tail = p
	p.park()
	return !p.expired
}

// Wake releases every waiter, in arrival order.
func (q *WaitQueue) Wake() {
	for q.head != nil {
		q.Grant()
	}
}

// Grant releases the head waiter alone, reporting whether there was one.
func (q *WaitQueue) Grant() bool {
	p := q.head
	if p == nil {
		return false
	}
	q.remove(p)
	p.wakeLater()
	return true
}

// Empty reports whether no process waits.
func (q *WaitQueue) Empty() bool { return q.head == nil }

// remove unlinks p, wherever it is in the queue.
func (q *WaitQueue) remove(p *Proc) {
	if p.qprev == nil {
		q.head = p.qnext
	} else {
		p.qprev.qnext = p.qnext
	}
	if p.qnext == nil {
		q.tail = p.qprev
	} else {
		p.qnext.qprev = p.qprev
	}
	p.q, p.qprev, p.qnext = nil, nil, nil
}
