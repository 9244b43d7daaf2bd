package sim

import "slices"

// Queue is an unbounded FIFO mailbox between simulated processes.
// Put never blocks; Get parks the caller while the queue is empty.
// Blocked consumers are served in arrival order. The FIFO is short, so
// the head is popped with slices.Delete: unlike s = s[1:], it keeps the
// backing array's capacity and clears the vacated slot.
type Queue[T any] struct {
	items   []T
	waiters WaitQueue
	closed  bool
}

// NewQueue returns an empty queue for the processes of kernel k.
func NewQueue[T any](k *Kernel) *Queue[T] {
	return &Queue[T]{}
}

// Put appends v and wakes the longest-waiting consumer, if any.
// Put on a closed queue panics.
func (q *Queue[T]) Put(v T) {
	if q.closed {
		panic("sim: Put on closed Queue")
	}
	q.items = append(q.items, v)
	q.waiters.Grant()
}

// Close marks the queue closed. Blocked and future Get calls return
// ok=false once the queue drains. Items already queued are still
// delivered.
func (q *Queue[T]) Close() {
	q.closed = true
	q.waiters.Wake()
}

// Get removes and returns the head item, parking p while the queue is
// empty. It returns ok=false if the queue is closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for len(q.items) == 0 {
		if q.closed {
			return v, false
		}
		q.waiters.Wait(ProcWaiter{P: p}, 0)
	}
	v = q.items[0]
	q.items = slices.Delete(q.items, 0, 1)
	// An item may have arrived for another parked consumer while this one
	// was scheduled; keep the chain going if items remain.
	if len(q.items) > 0 {
		q.waiters.Grant()
	}
	return v, true
}
