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
	obj uint64 // table or index id << 32 | slot
	id  uint64 // page number or key value
}

// hash mixes both words so that every bit reaches the low bits the
// table indexes by (obj keeps its table or index id in the high word).
func (k lockKey) hash() uint64 {
	h := k.obj*0x9e3779b97f4a7c15 + k.id
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

type lockEntry struct {
	owner   uint64        // 0 while release hands the lock to the head waiter
	waiters sim.WaitQueue // FIFO
}

// lockMap is an open-addressed table of the held locks: a power-of-two
// array probed linearly from a key's home slot. It grows at half load and
// never shrinks; deletion shifts the rest of the cluster back, so there
// are no tombstones and a probe ends at the first empty slot.
type lockMap struct {
	slots []lockSlot
	n     int // entries
}

type lockSlot struct {
	key lockKey
	e   *lockEntry // nil: empty
}

func (m *lockMap) home(k lockKey) int { return int(k.hash() & uint64(len(m.slots)-1)) }

// find returns k's slot, or the empty slot that ends its probe.
func (m *lockMap) find(k lockKey) int {
	mask := len(m.slots) - 1
	i := m.home(k)
	for m.slots[i].e != nil && m.slots[i].key != k {
		i = (i + 1) & mask
	}
	return i
}

func (m *lockMap) get(k lockKey) *lockEntry { return m.slots[m.find(k)].e }

// put maps an absent key k to e.
func (m *lockMap) put(k lockKey, e *lockEntry) {
	if 2*(m.n+1) > len(m.slots) {
		old := m.slots
		m.slots = make([]lockSlot, 2*len(old))
		for _, s := range old {
			if s.e != nil {
				m.slots[m.find(s.key)] = s
			}
		}
	}
	m.slots[m.find(k)] = lockSlot{k, e}
	m.n++
}

// del unmaps k, which must be present, moving back every later entry of
// its cluster that may live in the freed slot: one whose home is not
// cyclically in (i, j].
func (m *lockMap) del(k lockKey) {
	mask := len(m.slots) - 1
	i := m.find(k)
	for j := (i + 1) & mask; m.slots[j].e != nil; j = (j + 1) & mask {
		if (j-m.home(m.slots[j].key))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = lockSlot{}
	m.n--
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
	locks   lockMap
	free    []*lockEntry // entries of released locks, for the next acquire
	timeout sim.Time
}

// NewLockTable creates a lock table whose waits time out 50ms of
// simulated time after they queue.
func NewLockTable() *LockTable {
	return &LockTable{locks: lockMap{slots: make([]lockSlot, 64)}, timeout: 50 * sim.Millisecond}
}

// acquire takes an exclusive lock on key for tx, waiting FIFO. It reports
// held when tx owned the lock before the call: there is one hold per
// transaction and key, so the caller releases only what it newly took.
func (lt *LockTable) acquire(ctx *IOCtx, tx uint64, key lockKey) (held bool, err error) {
	e := lt.locks.get(key)
	if e == nil {
		if n := len(lt.free); n > 0 {
			e, lt.free = lt.free[n-1], lt.free[:n-1]
		} else {
			e = new(lockEntry)
		}
		e.owner = tx
		lt.locks.put(key, e)
		return false, nil
	}
	if e.owner == tx {
		return true, nil
	}
	// Queued, the entry stays ours to wait on: release hands a lock with
	// waiters on and frees only one with none. Entries are pointers, so a
	// table growth or a backward shift never moves the queue.
	if !e.waiters.Wait(ctx.W, ctx.W.Now()+lt.timeout) {
		return false, fmt.Errorf("%w: tx %d on %v", ErrLockTimeout, tx, key)
	}
	e.owner = tx // release handed the lock to us
	return false, nil
}

// release frees tx's hold on key, handing the lock to the FIFO head.
func (lt *LockTable) release(tx uint64, key lockKey) {
	e := lt.locks.get(key)
	if e == nil || e.owner != tx {
		return
	}
	if e.waiters.Grant() {
		e.owner = 0
		return
	}
	lt.locks.del(key)
	lt.free = append(lt.free, e)
}

// releaseAll frees every lock owned by tx (commit/abort).
func (lt *LockTable) releaseAll(tx uint64, keys []lockKey) {
	for _, k := range keys {
		lt.release(tx, k)
	}
}
