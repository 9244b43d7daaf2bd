package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
)

// Tests for the bytes the engine owns and reuses: buffer-pool
// reservations, recycled transaction handles and their arenas, in-place
// dirty reads and the WAL flush descriptor.

// touchedMemVolume is a memory volume whose every page has been written
// once, so later writes reuse the stored page instead of allocating it:
// allocation counts then measure the engine, not the test volume.
func touchedMemVolume(pages int64) *MemVolume {
	v := NewMemVolume(512, pages)
	zero := make([]byte, 512)
	for id := PageID(0); int64(id) < pages; id++ {
		_ = v.WritePage(nil, id, zero, 0)
	}
	return v
}

// warmEngine formats and opens an engine on touched memory volumes.
func warmEngine(t *testing.T, frames int) (*Engine, *IOCtx) {
	t.Helper()
	data, logv := touchedMemVolume(4096), touchedMemVolume(4096)
	ctx := NewIOCtx(nil)
	if err := Format(ctx, data, logv); err != nil {
		t.Fatal(err)
	}
	e, err := Open(ctx, data, logv, EngineConfig{BufferFrames: frames})
	if err != nil {
		t.Fatal(err)
	}
	return e, ctx
}

// TestPinMissAllocatesNothing: a miss reserves its page id with a
// placeholder from the pool's free list, not a fresh frame.
func TestPinMissAllocatesNothing(t *testing.T) {
	bp := NewBufferPool(touchedMemVolume(64), nil, 8)
	ctx := NewIOCtx(nil)
	id := PageID(0)
	pin := func() {
		f, err := bp.Pin(ctx, id, false)
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(f, false, 0)
		id = (id + 1) % 16
	}
	for i := 0; i < 32; i++ {
		pin()
	}
	before := bp.Stats()
	if n := testing.AllocsPerRun(100, pin); n != 0 {
		t.Errorf("a buffer miss allocated %v times, want 0", n)
	}
	if d := bp.Stats().Sub(before); d.Hits != 0 || d.Misses != 101 {
		t.Errorf("hits/misses = %d/%d, want every pin a miss", d.Hits, d.Misses)
	}
}

// TestPrefetchAllocatesNothing: the same for read-ahead reservations.
func TestPrefetchAllocatesNothing(t *testing.T) {
	bp := NewBufferPool(touchedMemVolume(64), nil, 8)
	ctx := NewIOCtx(nil)
	load := ctx.WithClass(ioreq.ClassPrefetch)
	id := PageID(0)
	prefetch := func() {
		if err := bp.Prefetch(ctx, load, id); err != nil {
			t.Fatal(err)
		}
		id = (id + 1) % 16
	}
	for i := 0; i < 32; i++ {
		prefetch()
	}
	before := bp.Stats()
	if n := testing.AllocsPerRun(100, prefetch); n != 0 {
		t.Errorf("a read-ahead allocated %v times, want 0", n)
	}
	if d := bp.Stats().Sub(before); d.Prefetches != 101 {
		t.Errorf("prefetches = %d, want every call a load", d.Prefetches)
	}
}

// failOnceVolume fails the next read of one page after a short wait.
type failOnceVolume struct {
	Volume
	fail PageID
}

func (v *failOnceVolume) ReadPage(ctx *IOCtx, id PageID, buf []byte) error {
	if id == v.fail {
		v.fail = InvalidPageID
		ctx.W.WaitUntil(ctx.W.Now() + 10*sim.Microsecond)
		return errors.New("injected read error")
	}
	return v.Volume.ReadPage(ctx, id, buf)
}

// TestReservationNotReusedWhileHeld: a read-ahead parked behind a dirty
// victim keeps its reservation while a foreground miss steals the id (and
// fails), and a second read-ahead reserves the same id. Had the first
// reservation gone back early, the second would hold it, the first
// would find "its" placeholder still mapped and load the page too.
func TestReservationNotReusedWhileHeld(t *testing.T) {
	const x = PageID(10)
	mem := NewMemVolume(512, 64)
	vol := &failOnceVolume{Volume: &DelayVolume{Volume: mem, ReadDelay: 10 * sim.Microsecond,
		WriteDelay: 100 * sim.Microsecond}, fail: x}
	bp := NewBufferPool(vol, nil, 4)
	ctx0 := NewIOCtx(nil)
	// Frames 0..3 hold pages 1..4; pages 1 and 3 are dirty, so the first
	// and the third victim take a 100 µs write-back.
	for id := PageID(1); id <= 4; id++ {
		f, err := bp.Pin(ctx0, id, true)
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(f, id%2 == 1, 1)
	}
	victimA := bp.frames[0]

	k := sim.New()
	var errs []error
	k.Go("prefetch-a", func(p *sim.Proc) { // t=0: parks in grabVictim until t=100
		ctx := NewIOCtx(sim.ProcWaiter{P: p})
		if err := bp.Prefetch(ctx, ctx, x); err != nil {
			errs = append(errs, err)
		}
	})
	k.Go("miss-b", func(p *sim.Proc) { // t=10: steals x, its read fails at t=20
		p.Sleep(10 * sim.Microsecond)
		ctx := NewIOCtx(sim.ProcWaiter{P: p})
		if _, err := bp.Pin(ctx, x, false); err == nil {
			errs = append(errs, errors.New("the injected read did not fail"))
		}
	})
	k.Go("prefetch-c", func(p *sim.Proc) { // t=30: reserves x, parks until t=130
		p.Sleep(30 * sim.Microsecond)
		ctx := NewIOCtx(sim.ProcWaiter{P: p})
		if err := bp.Prefetch(ctx, ctx, x); err != nil {
			errs = append(errs, err)
		}
	})
	k.Run()
	k.Shutdown()
	if len(errs) > 0 {
		t.Fatal(errs)
	}

	holders := 0
	for _, f := range bp.frames {
		if f.ID == x {
			holders++
			if bp.table[x] != f {
				t.Errorf("frame holding page %d is not its table entry", x)
			}
		}
		if f.pin != 0 || f.loading {
			t.Errorf("frame of page %d left pinned=%d loading=%v", f.ID, f.pin, f.loading)
		}
	}
	if holders != 1 {
		t.Fatalf("page %d is held by %d frames, want 1", x, holders)
	}
	if victimA.ID != InvalidPageID || victimA.dirty {
		t.Errorf("the first read-ahead kept its victim: page %d dirty=%v", victimA.ID, victimA.dirty)
	}
}

// TestTxRecycled: a finished handle goes back to the engine and the next
// Begin reuses it with a new id and nothing left over; until then it
// stays finished.
func TestTxRecycled(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 16)
	tbl, err := e.CreateTable(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	r1, err := e.Insert(ctx, tx, tbl, []byte("first-row"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Insert(ctx, tx, tbl, []byte("second-row"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}

	tx = e.Begin()
	if _, err := e.FetchForUpdate(ctx, tx, r1); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(ctx, tx, r1, []byte("FIRST-ROW")); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(ctx, tx, tbl, r2); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	oldID := tx.id
	if err := e.Commit(ctx, tx); !errors.Is(err, ErrTxDone) {
		t.Fatalf("second Commit = %v, want ErrTxDone", err)
	}
	if err := e.Abort(ctx, tx); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Abort after Commit = %v, want ErrTxDone", err)
	}

	again := e.Begin()
	if again != tx {
		t.Fatal("Begin did not reuse the finished handle")
	}
	if again.id <= oldID || again.done {
		t.Errorf("reused handle: id %d (was %d), done %v", again.id, oldID, again.done)
	}
	if len(again.locks)+len(again.undo)+len(again.deletes)+len(again.arena) != 0 {
		t.Errorf("reused handle not empty: %d locks, %d undo, %d deletes, %d arena bytes",
			len(again.locks), len(again.undo), len(again.deletes), len(again.arena))
	}
	if row, err := e.Fetch(ctx, again, r1); err != nil || string(row) != "FIRST-ROW" {
		t.Fatalf("row after recycled commit: %q %v", row, err)
	}
	if _, err := e.Fetch(ctx, again, r2); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("deleted row: %v, want ErrBadSlot", err)
	}
	if err := e.Commit(ctx, again); err != nil {
		t.Fatal(err)
	}
}

// TestAbortRestoresBeforeImagesAcrossArenaGrowth: undo records point
// into the arena by offset, so before-images survive its regrowth, in a
// new handle and in a recycled one.
func TestAbortRestoresBeforeImagesAcrossArenaGrowth(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 64)
	tbl, err := e.CreateTable(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	const rows = 64
	var rids [rows]RID
	var orig [rows][]byte
	tx := e.Begin()
	for i := range rids {
		orig[i] = fmt.Appendf(nil, "row-%02d-%s", i, bytes.Repeat([]byte{'a' + byte(i%26)}, 30))
		if rids[i], err = e.Insert(ctx, tx, tbl, orig[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}

	var first *Tx
	for round := 0; round < 2; round++ {
		tx := e.Begin()
		if round == 0 {
			first = tx
		} else if tx != first {
			t.Fatal("the second round did not get the recycled handle")
		}
		grew := 0
		for i, rid := range rids {
			c := cap(tx.arena)
			if err := e.Update(ctx, tx, rid, bytes.Repeat([]byte{byte(round + 1)}, len(orig[i]))); err != nil {
				t.Fatal(err)
			}
			if cap(tx.arena) != c {
				grew++
			}
		}
		if round == 0 && grew < 3 {
			t.Errorf("the arena grew %d times, want several", grew)
		}
		if err := e.Abort(ctx, tx); err != nil {
			t.Fatal(err)
		}
		check := e.Begin()
		for i, rid := range rids {
			row, err := e.Fetch(ctx, check, rid)
			if err != nil || !bytes.Equal(row, orig[i]) {
				t.Fatalf("round %d: row %d after abort = %q, %v; want %q", round, i, row, err, orig[i])
			}
		}
		if err := e.Commit(ctx, check); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFetchedRowsValidUntilCommit: rows FetchForUpdate returned stay
// intact while the transaction's updates append before-images behind
// them, and an append to one row cannot reach the next.
func TestFetchedRowsValidUntilCommit(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 16)
	tbl, err := e.CreateTable(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	var rids [3]RID
	tx := e.Begin()
	for i := range rids {
		if rids[i], err = e.Insert(ctx, tx, tbl, fmt.Appendf(nil, "balance-%d=100", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}

	// Grow a handle's arena first: in the recycled handle the three rows
	// then share one backing array, where an unclamped row could
	// overrun the next.
	tx = e.Begin()
	for i := 0; i < 16; i++ {
		if _, err := e.Fetch(ctx, tx, rids[i%3]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}

	tx = e.Begin()
	var rows, want [3][]byte
	for i, rid := range rids {
		if rows[i], err = e.FetchForUpdate(ctx, tx, rid); err != nil {
			t.Fatal(err)
		}
		want[i] = bytes.Clone(rows[i])
	}
	_ = append(rows[0], "overrun"...)
	for i, rid := range rids {
		rows[i][len(rows[i])-1] = '7' // read-modify-write in place, the workloads' idiom
		want[i][len(want[i])-1] = '7'
		if err := e.Update(ctx, tx, rid, rows[i]); err != nil {
			t.Fatal(err)
		}
		for j := range rows {
			if !bytes.Equal(rows[j], want[j]) {
				t.Fatalf("after update %d: row %d = %q, want %q", i, j, rows[j], want[j])
			}
		}
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		got, err := e.FetchDirty(ctx, rid)
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("committed row %d = %q, %v; want %q", i, got, err, want[i])
		}
	}
}

// TestEngineTxAllocatesNothing: a TPC-B-shaped transaction on a warm
// engine — three index lookups, each row read for update and written
// back, one history row built in the transaction's arena (Tx.Scratch)
// and inserted, commit — allocates nothing:
// the handle, its locks, undo and arena are recycled, and the commit
// flush takes the WAL's own descriptor.
func TestEngineTxAllocatesNothing(t *testing.T) {
	e, ctx := warmEngine(t, 512)
	accts, err := e.CreateTable(ctx, "accounts")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := e.CreateIndex(ctx, "accounts_pk")
	if err != nil {
		t.Fatal(err)
	}
	hist, err := e.CreateTable(ctx, "history")
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	tx := e.Begin()
	for k := int64(0); k < n; k++ {
		rid, err := e.Insert(ctx, tx, accts, make([]byte, 48))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.IdxInsert(ctx, tx, idx, k, rid); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	i := int64(0)
	run := func() {
		tx := e.Begin()
		for _, key := range [3]int64{i % n, (i + 100) % n, (i + 200) % n} {
			rid, found, err := e.IdxLookup(ctx, tx, idx, key)
			if err != nil || !found {
				t.Fatalf("lookup %d: found=%v err=%v", key, found, err)
			}
			row, err := e.FetchForUpdate(ctx, tx, rid)
			if err != nil {
				t.Fatal(err)
			}
			row[0]++
			if err := e.Update(ctx, tx, rid, row); err != nil {
				t.Fatal(err)
			}
		}
		history := tx.Scratch(40)
		history[0] = byte(i)
		if _, err := e.Insert(ctx, tx, hist, history); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(ctx, tx); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for j := 0; j < 50; j++ {
		run()
	}
	if got := testing.AllocsPerRun(200, run); got != 0 {
		t.Errorf("a TPC-B-shaped transaction allocated %v times, want 0", got)
	}
}

// classLog records the class each log page write was issued at.
type classLog struct {
	Volume
	classes []ioreq.Class
}

func (v *classLog) WritePage(ctx *IOCtx, id PageID, data []byte, h WriteHint) error {
	v.classes = append(v.classes, ctx.Class)
	return v.Volume.WritePage(ctx, id, data, h)
}

// TestWALFlushAllocatesNothing: the commit flush from a default-class
// context and a write-back flush from a GC-class context (clamped to the
// program class) allocate nothing, and the leader's pages carry the
// flush class.
func TestWALFlushAllocatesNothing(t *testing.T) {
	vol := &classLog{Volume: touchedMemVolume(4096), classes: make([]ioreq.Class, 0, 1024)}
	w := NewWAL(ringOn(vol))
	rec := &LogRecord{Type: RecCommit, Tx: 1}
	for _, tc := range []struct {
		name  string
		ctx   *IOCtx
		flush func(*IOCtx, uint64) error
		want  ioreq.Class
	}{
		{"Flush, default class", NewIOCtx(nil), w.Flush, ioreq.ClassWAL},
		{"flushBg, GC class", NewIOCtx(nil).WithClass(ioreq.ClassGC), w.flushBg, ioreq.ClassProgram},
	} {
		run := func() {
			if err := tc.flush(tc.ctx, w.Append(rec)+1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			run()
		}
		vol.classes = vol.classes[:0]
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("%s: %v allocs per flush, want 0", tc.name, n)
		}
		if len(vol.classes) == 0 {
			t.Fatalf("%s: no page written", tc.name)
		}
		for _, c := range vol.classes {
			if c != tc.want {
				t.Fatalf("%s: a log page went out as %v, want %v", tc.name, c, tc.want)
			}
		}
		if tc.ctx.Class == tc.want {
			t.Fatalf("%s: the caller's context was modified", tc.name)
		}
	}
}

// TestViewDirtyMatchesFetchDirty: the in-place view sees the bytes the
// copy returns, through the same pins.
func TestViewDirtyMatchesFetchDirty(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 16)
	tbl, err := e.CreateTable(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	rid, err := e.Insert(ctx, tx, tbl, []byte("dirty-read-row"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	for _, r := range []RID{rid, {Page: rid.Page, Slot: 9}} {
		s0 := e.Buffer().Stats()
		copied, cerr := e.FetchDirty(ctx, r)
		s1 := e.Buffer().Stats()
		var viewed []byte
		verr := e.ViewDirty(ctx, r, func(rec []byte) { viewed = bytes.Clone(rec) })
		s2 := e.Buffer().Stats()
		if !bytes.Equal(copied, viewed) || (cerr == nil) != (verr == nil) {
			t.Errorf("rid %v: FetchDirty %q, %v; ViewDirty %q, %v", r, copied, cerr, viewed, verr)
		}
		if s1.Sub(s0) != s2.Sub(s1) {
			t.Errorf("rid %v: buffer stats moved %+v under FetchDirty, %+v under ViewDirty", r, s1.Sub(s0), s2.Sub(s1))
		}
	}
}
