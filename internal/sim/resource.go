package sim

// Resource is a counted FCFS resource (a semaphore with strict arrival
// ordering). Release hands the slot directly to the longest-waiting
// process, so later arrivals cannot barge past parked ones.
type Resource struct {
	capacity int
	inUse    int
	waiters  WaitQueue
}

// NewResource returns a resource of kernel k with the given concurrent
// capacity. Capacity must be >= 1.
func NewResource(k *Kernel, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{capacity: capacity}
}

// InUse reports how many slots are currently held.
func (r *Resource) InUse() int { return r.inUse }

// Acquire blocks p until a slot is available. Slots are granted in strict
// arrival order.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && r.waiters.Empty() {
		r.inUse++
		return
	}
	r.waiters.Wait(ProcWaiter{P: p}, 0) // Release granted us its slot
}

// Release frees one slot. If processes are waiting the slot transfers to
// the head of the queue without becoming observable as free.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release without matching Acquire")
	}
	if !r.waiters.Grant() {
		r.inUse--
	}
}
