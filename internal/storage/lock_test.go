package storage

import (
	"errors"
	"fmt"
	"math/rand"
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
			if lt.locks.n != 0 {
				t.Errorf("lock survives its release: %d locks", lt.locks.n)
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
			if lt.locks.n != 0 {
				t.Errorf("locks left after releaseAll: %d locks", lt.locks.n)
			}
		}},
		{"release by a non-owner is ignored", func(t *testing.T, lt *LockTable) {
			lt.acquire(serial, 1, key)
			lt.release(2, key)
			lt.release(2, other)
			if e := lt.locks.get(key); e == nil || e.owner != 1 {
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
			if lt.locks.n != 0 {
				t.Errorf("locks left: %d locks", lt.locks.n)
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
			if lt.locks.n != 0 {
				t.Errorf("locks left: %d locks", lt.locks.n)
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
			if e := lt.locks.get(other); e != freed || e.owner != 9 || !e.waiters.Empty() || len(lt.free) != 0 {
				t.Errorf("entry %+v (reused: %v), %d still free", e, e == freed, len(lt.free))
			}
			lt.release(9, other) // nobody is handed the lock
			if lt.locks.n != 0 {
				t.Errorf("locks left: %d locks", lt.locks.n)
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
		if lt.locks.n != 0 || len(lt.free) != 1 || !lt.free[0].waiters.Empty() {
			t.Errorf("timeout %v: after the release: %d locks, %d free entries", timeout, lt.locks.n, len(lt.free))
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
		if le := e.lt.locks.get(k); le != nil {
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
	if e.lt.locks.n != 0 || len(reader.locks) != 0 {
		t.Fatalf("instant locks outlived their call: table %d locks, tx %v", e.lt.locks.n, reader.locks)
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
	if e.lt.locks.n != 0 {
		t.Errorf("locks left after commit: %d locks", e.lt.locks.n)
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

	// A load transaction's 1,000 keys grow the array once; from then on
	// the array and the free list hold them all.
	keys := make([]lockKey, 1000)
	for i := range keys {
		keys[i] = ridKey(RID{Page: PageID(i), Slot: 2})
	}
	load := func() {
		for _, k := range keys {
			if held, err := lt.acquire(ctx, 2, k); held || err != nil {
				t.Fatalf("held %v err %v", held, err)
			}
		}
		lt.releaseAll(2, keys)
	}
	load()
	if n := testing.AllocsPerRun(100, load); n != 0 || lt.locks.n != 0 || len(lt.locks.slots) != 2048 {
		t.Errorf("a 1,000-key transaction allocates %v objects, leaves %d locks in %d slots; want 0, 0, 2048",
			n, lt.locks.n, len(lt.locks.slots))
	}
}

// TestLockMapMatchesGoMap runs a seeded mix of put, get and del on the
// open-addressed lock map against a Go map. The first part holds the
// array at 64 slots and draws its keys from clusters forced onto four
// home slots, two of them the array's last, so deletes shift entries
// back across the wrap; after every step each entry must be found and
// no entry may sit behind an empty slot on its probe path. The second
// part grows the array with spread keys.
func TestLockMapMatchesGoMap(t *testing.T) {
	m := NewLockTable().locks
	size := len(m.slots)
	var pool []lockKey
	for _, home := range []int{size - 2, size - 1, 0, size / 3} {
		for id, found := uint64(0), 0; found < 8; id++ {
			if k := (lockKey{obj: 1<<62 | 3, id: id}); m.home(k) == home {
				pool, found = append(pool, k), found+1
			}
		}
	}
	ref := map[lockKey]*lockEntry{}
	check := func(step int, keys []lockKey) {
		t.Helper()
		if m.n != len(ref) {
			t.Fatalf("step %d: %d entries, reference %d", step, m.n, len(ref))
		}
		for _, k := range keys {
			if got := m.get(k); got != ref[k] {
				t.Fatalf("step %d: get(%v) = %p, reference %p", step, k, got, ref[k])
			}
		}
	}
	wrapped := 0 // steps that found an entry past the array's end
	probes := func(step int) {
		t.Helper()
		mask := len(m.slots) - 1
		for j, s := range m.slots {
			if s.e == nil {
				continue
			}
			if ref[s.key] != s.e {
				t.Fatalf("step %d: slot %d holds %v → %p, reference %p", step, j, s.key, s.e, ref[s.key])
			}
			h := m.home(s.key)
			for i := h; i != j; i = (i + 1) & mask {
				if m.slots[i].e == nil {
					t.Fatalf("step %d: %v homed at %d sits at %d behind empty slot %d", step, s.key, h, j, i)
				}
			}
			if j < h {
				wrapped++
			}
		}
	}
	op := func(rng *rand.Rand, k lockKey, room bool) {
		switch e := ref[k]; {
		case e == nil && room:
			e = new(lockEntry)
			m.put(k, e)
			ref[k] = e
		case e != nil && rng.Intn(2) == 0:
			m.del(k)
			delete(ref, k)
		}
	}
	rng := rand.New(rand.NewSource(44))
	for step := range 20000 {
		op(rng, pool[rng.Intn(len(pool))], 2*(len(ref)+1) <= size)
		check(step, pool)
		probes(step)
	}
	if len(m.slots) != size || wrapped == 0 {
		t.Fatalf("clustered part: %d slots (want %d), %d wrapped entries seen (want some)", len(m.slots), size, wrapped)
	}

	var spread []lockKey
	for step := range 30000 {
		k := lockKey{obj: uint64(rng.Intn(4))<<32 | uint64(rng.Intn(8)), id: uint64(rng.Intn(512))}
		spread = append(spread, k)
		op(rng, k, rng.Intn(3) > 0)
		check(step, []lockKey{k})
		if step%1000 == 0 {
			check(step, spread)
			probes(step)
		}
	}
	if len(m.slots) < 8*size {
		t.Errorf("spread part left %d slots; the mix should have grown the array", len(m.slots))
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
