package storage

import (
	"errors"
	"fmt"

	"noftl/internal/sim"
)

// ErrLockTimeout aborts a transaction that waited too long for a lock;
// the caller retries the transaction (the standard deadlock escape in
// OLTP drivers).
var ErrLockTimeout = errors.New("storage: lock wait timeout")

// lockKey identifies a lockable object: a heap RID or an index key.
type lockKey struct {
	space uint32 // table or index id
	a     uint64
	b     uint64
}

type lockEntry struct {
	owner uint64
	count int
	queue []uint64 // waiting tx ids, FIFO
}

// LockTable provides exclusive record locks with FIFO queueing and
// timeout-based deadlock resolution. Reads run at read-committed without
// shared locks (the Shore-MT experiments in the paper are throughput
// bound on I/O, not on lock conflicts).
type LockTable struct {
	locks   map[lockKey]*lockEntry
	timeout sim.Time
}

// NewLockTable creates a lock table whose waits time out after 50ms of
// simulated time.
func NewLockTable() *LockTable {
	return &LockTable{locks: make(map[lockKey]*lockEntry), timeout: 50 * sim.Millisecond}
}

// acquire takes an exclusive lock on key for tx, waiting FIFO. Reentrant
// for the owning transaction.
func (lt *LockTable) acquire(ctx *IOCtx, tx uint64, key lockKey) error {
	e, ok := lt.locks[key]
	if !ok {
		lt.locks[key] = &lockEntry{owner: tx, count: 1}
		return nil
	}
	if e.owner == tx {
		e.count++
		return nil
	}
	e.queue = append(e.queue, tx)
	wait := ctx.W
	deadline := wait.Now() + lt.timeout
	// The first look comes one period after queueing, not at once.
	const every = 100 * sim.Microsecond
	wait.WaitUntil(wait.Now() + every)
	wait.Poll(every, func() bool {
		e, ok := lt.locks[key]
		return !ok || e.owner == tx || wait.Now() >= deadline
	})
	e, ok = lt.locks[key]
	if !ok {
		// Freed with an empty queue; take it if we are first.
		lt.locks[key] = &lockEntry{owner: tx, count: 1}
		return nil
	}
	if e.owner == tx {
		// Hand-off granted the lock to us.
		return nil
	}
	lt.unqueue(key, tx)
	return fmt.Errorf("%w: tx %d on %v", ErrLockTimeout, tx, key)
}

func (lt *LockTable) unqueue(key lockKey, tx uint64) {
	e, ok := lt.locks[key]
	if !ok {
		return
	}
	for i, q := range e.queue {
		if q == tx {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return
		}
	}
}

// release frees one hold on key; full release hands the lock to the
// FIFO head.
func (lt *LockTable) release(tx uint64, key lockKey) {
	e, ok := lt.locks[key]
	if !ok || e.owner != tx {
		return
	}
	e.count--
	if e.count > 0 {
		return
	}
	if len(e.queue) > 0 {
		e.owner = e.queue[0]
		e.count = 1
		e.queue = e.queue[1:]
		return
	}
	delete(lt.locks, key)
}

// releaseAll frees every lock owned by tx (commit/abort).
func (lt *LockTable) releaseAll(tx uint64, keys []lockKey) {
	for _, k := range keys {
		e, ok := lt.locks[k]
		if !ok || e.owner != tx {
			continue
		}
		e.count = 1
		lt.release(tx, k)
	}
}
