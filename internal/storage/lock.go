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

// lockKey identifies a lockable object: a heap RID or an index key. Two
// words without padding, so the lock table hashes it as plain memory.
type lockKey struct {
	obj uint64 // table or index id << 32 | slot
	id  uint64 // page number or key value
}

type lockEntry struct {
	owner   uint64        // 0 while release hands the lock to the head waiter
	waiters sim.WaitQueue // FIFO
}

// LockTable provides exclusive record locks with FIFO queueing and
// timeout-based deadlock resolution. Reads run at read-committed without
// shared locks (the Shore-MT experiments in the paper are throughput
// bound on I/O, not on lock conflicts).
//
// The table alone knows who holds what: an entry exists while its lock
// is held, names its owner, and a transaction learns from acquire whether
// it held the key already. It keeps only the list of keys to release.
type LockTable struct {
	locks   map[lockKey]*lockEntry
	free    []*lockEntry // entries of released locks, for the next acquire
	timeout sim.Time
}

// NewLockTable creates a lock table whose waits time out 50ms of
// simulated time after they queue.
func NewLockTable() *LockTable {
	return &LockTable{locks: make(map[lockKey]*lockEntry), timeout: 50 * sim.Millisecond}
}

// acquire takes an exclusive lock on key for tx, waiting FIFO. It reports
// held when tx owned the lock before the call: there is one hold per
// transaction and key, so the caller releases only what it newly took.
func (lt *LockTable) acquire(ctx *IOCtx, tx uint64, key lockKey) (held bool, err error) {
	e := lt.locks[key]
	if e == nil {
		if n := len(lt.free); n > 0 {
			e, lt.free = lt.free[n-1], lt.free[:n-1]
		} else {
			e = new(lockEntry)
		}
		e.owner = tx
		lt.locks[key] = e
		return false, nil
	}
	if e.owner == tx {
		return true, nil
	}
	// Queued, the entry stays ours to wait on: release hands a lock with
	// waiters on and frees only one with none.
	if !e.waiters.Wait(ctx.W, ctx.W.Now()+lt.timeout) {
		return false, fmt.Errorf("%w: tx %d on %v", ErrLockTimeout, tx, key)
	}
	e.owner = tx // release handed the lock to us
	return false, nil
}

// release frees tx's hold on key, handing the lock to the FIFO head.
func (lt *LockTable) release(tx uint64, key lockKey) {
	e := lt.locks[key]
	if e == nil || e.owner != tx {
		return
	}
	if e.waiters.Grant() {
		e.owner = 0
		return
	}
	delete(lt.locks, key)
	lt.free = append(lt.free, e)
}

// releaseAll frees every lock owned by tx (commit/abort).
func (lt *LockTable) releaseAll(tx uint64, keys []lockKey) {
	for _, k := range keys {
		lt.release(tx, k)
	}
}
