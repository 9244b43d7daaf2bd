package storage

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"noftl/internal/sim"
)

// lockScript runs one process per transaction on a fresh kernel: tx i
// (ids from 1) starts at startUS[i] µs, acquires key, logs what it got,
// holds it holdUS[i] µs and releases it. Logged times are in µs.
func lockScript(lt *LockTable, key lockKey, startUS, holdUS []int) []string {
	k := sim.New()
	var log []string
	for i := range startUS {
		tx := uint64(i + 1)
		k.Go(fmt.Sprintf("tx%d", tx), func(p *sim.Proc) {
			p.Sleep(sim.Time(startUS[i]) * sim.Microsecond)
			held, err := lt.acquire(NewIOCtx(sim.ProcWaiter{P: p}), tx, key)
			switch {
			case errors.Is(err, ErrLockTimeout):
				log = append(log, fmt.Sprintf("tx%d timeout at %d", tx, p.Now()/sim.Microsecond))
				return
			case err != nil || held:
				log = append(log, fmt.Sprintf("tx%d held %v err %v", tx, held, err))
				return
			}
			log = append(log, fmt.Sprintf("tx%d granted at %d", tx, p.Now()/sim.Microsecond))
			p.Sleep(sim.Time(holdUS[i]) * sim.Microsecond)
			lt.release(tx, key)
		})
	}
	k.Run()
	k.Shutdown()
	return log
}

func TestLockTable(t *testing.T) {
	key, other := ridKey(RID{Page: 7, Slot: 3}), idxKeyLock(2, 7)
	serial := NewIOCtx(nil)
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, lt *LockTable)
	}{
		{"acquire then re-acquire reports held", func(t *testing.T, lt *LockTable) {
			if held, err := lt.acquire(serial, 1, key); held || err != nil {
				t.Fatalf("first acquire: held %v err %v", held, err)
			}
			if held, err := lt.acquire(serial, 1, key); !held || err != nil {
				t.Fatalf("second acquire: held %v err %v", held, err)
			}
			lt.release(1, key) // one hold, however often it was acquired
			if len(lt.locks) != 0 {
				t.Errorf("lock survives its release: %v", lt.locks)
			}
		}},
		{"a held key enters tx.locks once", func(t *testing.T, lt *LockTable) {
			e := &Engine{lt: lt}
			tx := &Tx{id: 1}
			for i := 0; i < 3; i++ {
				if err := tx.lockWait(serial, e, key); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.lockWait(serial, e, other); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tx.locks, []lockKey{key, other}) {
				t.Errorf("tx.locks = %v", tx.locks)
			}
			lt.releaseAll(tx.id, tx.locks)
			if len(lt.locks) != 0 {
				t.Errorf("locks left after releaseAll: %v", lt.locks)
			}
		}},
		{"release by a non-owner is ignored", func(t *testing.T, lt *LockTable) {
			lt.acquire(serial, 1, key)
			lt.release(2, key)
			lt.release(2, other)
			if e := lt.locks[key]; e == nil || e.owner != 1 {
				t.Errorf("owner lost its lock: %+v", e)
			}
		}},
		{"FIFO hand-off to two queued waiters", func(t *testing.T, lt *LockTable) {
			// tx1 holds 0–1000 µs; tx2 queues at 10, tx3 at 20. Each waiter
			// is handed the lock the instant the one before releases it.
			got := lockScript(lt, key, []int{0, 10, 20}, []int{1000, 500, 0})
			want := []string{"tx1 granted at 0", "tx2 granted at 1000", "tx3 granted at 1500"}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("got %q, want %q", got, want)
			}
			if len(lt.locks) != 0 {
				t.Errorf("locks left: %v", lt.locks)
			}
		}},
		{"a timeout unqueues and the next waiter still gets the lock", func(t *testing.T, lt *LockTable) {
			lt.timeout = 300 * sim.Microsecond
			// tx2 (queued at 10) gives up at 310; tx3 (queued at 250) is
			// then first in line when tx1 releases at 400.
			got := lockScript(lt, key, []int{0, 10, 250}, []int{400, 0, 0})
			want := []string{"tx1 granted at 0", "tx2 timeout at 310", "tx3 granted at 400"}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("got %q, want %q", got, want)
			}
			if len(lt.locks) != 0 {
				t.Errorf("locks left: %v", lt.locks)
			}
		}},
		{"a freed entry reused by another key starts with an empty queue", func(t *testing.T, lt *LockTable) {
			lockScript(lt, key, []int{0, 10, 20}, []int{300, 0, 0}) // the entry's queue has held two waiters
			if len(lt.free) != 1 {
				t.Fatalf("%d entries on the free list, want 1", len(lt.free))
			}
			freed := lt.free[0]
			if held, err := lt.acquire(serial, 9, other); held || err != nil {
				t.Fatalf("held %v err %v", held, err)
			}
			if e := lt.locks[other]; e != freed || e.owner != 9 || !e.waiters.Empty() || len(lt.free) != 0 {
				t.Errorf("entry %+v (reused: %v), %d still free", e, e == freed, len(lt.free))
			}
			lt.release(9, other) // nobody is handed the lock
			if len(lt.locks) != 0 {
				t.Errorf("locks left: %v", lt.locks)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, NewLockTable()) })
	}
}

// TestLockWaitTimesOutAtItsDeadline: a queued lock times out exactly the
// lock timeout after it queued, on no grid — with the default 50 ms and
// with a timeout that is no multiple of a microsecond — and not a
// nanosecond earlier, while the holder keeps the lock.
func TestLockWaitTimesOutAtItsDeadline(t *testing.T) {
	key := ridKey(RID{Page: 7, Slot: 3})
	for _, timeout := range []sim.Time{50 * sim.Millisecond, 333*sim.Microsecond + 7} {
		lt := NewLockTable()
		lt.timeout = timeout
		k := sim.New()
		const queued = 12_345 // ns
		var ended sim.Time
		var err error
		k.Go("holder", func(p *sim.Proc) {
			lt.acquire(NewIOCtx(sim.ProcWaiter{P: p}), 1, key)
			p.Sleep(2 * timeout)
			lt.release(1, key)
		})
		k.Go("waiter", func(p *sim.Proc) {
			p.Sleep(queued)
			_, err = lt.acquire(NewIOCtx(sim.ProcWaiter{P: p}), 2, key)
			ended = p.Now()
		})
		k.Run()
		k.Shutdown()
		if !errors.Is(err, ErrLockTimeout) || ended != queued+timeout {
			t.Errorf("timeout %v: the wait ended at %v with %v, want ErrLockTimeout at %v", timeout, ended, err, queued+timeout)
		}
		if len(lt.locks) != 0 || len(lt.free) != 1 || !lt.free[0].waiters.Empty() {
			t.Errorf("timeout %v: after the release: %d locks, %d free entries", timeout, len(lt.locks), len(lt.free))
		}
	}
}

// TestInstantLockKeepsAHeldKey: IdxLookup and Fetch take their key's lock
// for an instant — unless the transaction holds it already, in which case
// it must still hold it afterwards.
func TestInstantLockKeepsAHeldKey(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "t")
	idx, _ := e.CreateIndex(ctx, "i")
	tx := e.Begin()
	rid, err := e.Insert(ctx, tx, tbl, []byte("row"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IdxInsert(ctx, tx, idx, 5, rid); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	owner := func(k lockKey) uint64 {
		if le := e.lt.locks[k]; le != nil {
			return le.owner
		}
		return 0
	}

	reader := e.Begin()
	if _, err := e.Fetch(ctx, reader, rid); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.IdxLookup(ctx, reader, idx, 5); err != nil {
		t.Fatal(err)
	}
	if len(e.lt.locks) != 0 || len(reader.locks) != 0 {
		t.Fatalf("instant locks outlived their call: table %v, tx %v", e.lt.locks, reader.locks)
	}

	writer := e.Begin()
	if err := e.Update(ctx, writer, rid, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := e.IdxDelete(ctx, writer, idx, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Fetch(ctx, writer, rid); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.IdxLookup(ctx, writer, idx, 5); err != nil {
		t.Fatal(err)
	}
	if owner(ridKey(rid)) != writer.id || owner(idxKeyLock(idx, 5)) != writer.id || len(writer.locks) != 2 {
		t.Fatalf("an instant lock released a held key: rid owner %d, key owner %d, tx %v",
			owner(ridKey(rid)), owner(idxKeyLock(idx, 5)), writer.locks)
	}
	if err := e.Commit(ctx, writer); err != nil {
		t.Fatal(err)
	}
	if len(e.lt.locks) != 0 {
		t.Errorf("locks left after commit: %v", e.lt.locks)
	}
}

// TestUncontendedLockAllocatesNothing: at steady state a lock's entry
// comes from the free list and goes back to it.
func TestUncontendedLockAllocatesNothing(t *testing.T) {
	lt, ctx := NewLockTable(), NewIOCtx(nil)
	page := PageID(0)
	if n := testing.AllocsPerRun(1000, func() {
		page++
		k := ridKey(RID{Page: page % 64, Slot: 1})
		if held, err := lt.acquire(ctx, 1, k); held || err != nil {
			t.Fatalf("held %v err %v", held, err)
		}
		lt.release(1, k)
	}); n != 0 {
		t.Errorf("acquire+release allocates %v objects", n)
	}
}

// TestTxFitsItsSizeClass: the handle with its inline arrays is one
// 512-byte object; a field that pushes it past costs every transaction
// the next size class.
func TestTxFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Tx{}); n > 512 {
		t.Errorf("Tx is %d bytes, want at most 512", n)
	}
}

// TestPatientLatchWaitOutlivesTheLockTimeout: a held index latch is
// handed FIFO to its waiters the instant it is released. A user
// transaction's wait ends with ErrLockTimeout exactly one lock timeout
// after it queued; a patient one (undo, recovery) waits as long as the
// holder holds, and gets the latch.
func TestPatientLatchWaitOutlivesTheLockTimeout(t *testing.T) {
	e := &Engine{lt: NewLockTable()}
	o := &object{name: "idx"}
	timeout := e.lt.timeout
	k := sim.New()
	var log []string
	latch := func(name string, at sim.Time, patient bool, hold sim.Time) {
		k.Go(name, func(p *sim.Proc) {
			p.Sleep(at)
			if err := e.latchIndex(NewIOCtx(sim.ProcWaiter{P: p}), o, patient); err != nil {
				log = append(log, fmt.Sprintf("%s %v at %d", name, errors.Is(err, ErrLockTimeout), p.Now()))
				return
			}
			log = append(log, fmt.Sprintf("%s latched at %d", name, p.Now()))
			p.Sleep(hold)
			e.unlatchIndex(o)
		})
	}
	latch("holder", 0, false, 3*timeout)
	latch("undo", 10, true, 1)
	latch("user", 20, false, 1)
	k.Run()
	k.Shutdown()
	want := []string{
		"holder latched at 0",
		fmt.Sprintf("user true at %d", 20+timeout),
		fmt.Sprintf("undo latched at %d", 3*timeout),
	}
	if !reflect.DeepEqual(log, want) || o.latched || !o.latchQ.Empty() {
		t.Errorf("got %q, latch held %v; want %q and the latch free", log, o.latched, want)
	}
}
