package storage

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// crashAndReopen simulates a crash: the engine (buffer pool, WAL tail)
// is dropped; only volume contents survive. Reopen runs recovery.
func crashAndReopen(t *testing.T, data, logv Volume, frames int) (*Engine, *IOCtx) {
	t.Helper()
	ctx := NewIOCtx(nil)
	e, err := Open(ctx, data, logv, EngineConfig{BufferFrames: frames})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	return e, ctx
}

func TestRecoveryRedoCommitted(t *testing.T) {
	e, ctx, data, logv := newTestEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "t")
	tx := e.Begin()
	rid, _ := e.Insert(ctx, tx, tbl, []byte("durable-row"))
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	// Crash WITHOUT flushing data pages: only WAL has the insert.
	e2, ctx2 := crashAndReopen(t, data, logv, 16)
	if !e2.Recovered {
		t.Error("engine did not notice recovery work")
	}
	tbl2, err := e2.OpenTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx2 := e2.Begin()
	rec, err := e2.Fetch(ctx2, tx2, rid)
	if err != nil || string(rec) != "durable-row" {
		t.Fatalf("after recovery: %q, %v", rec, err)
	}
	_ = e2.Commit(ctx2, tx2)
	_ = tbl2
}

func TestRecoveryUndoUncommitted(t *testing.T) {
	e, ctx, data, logv := newTestEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "t")
	setup := e.Begin()
	rid, _ := e.Insert(ctx, setup, tbl, []byte("v1-committed"))
	if err := e.Commit(ctx, setup); err != nil {
		t.Fatal(err)
	}

	loser := e.Begin()
	if err := e.Update(ctx, loser, rid, []byte("v2-uncommitt")); err != nil {
		t.Fatal(err)
	}
	ghost, _ := e.Insert(ctx, loser, tbl, []byte("ghost-row"))
	// Force the dirty pages AND the loser's log records to flash, as if
	// db-writers ran: the update is on disk but not committed.
	if err := e.wal.Flush(ctx, e.wal.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if err := e.bp.FlushSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	// Crash. The loser must be rolled back.
	e2, ctx2 := crashAndReopen(t, data, logv, 16)
	tx := e2.Begin()
	rec, err := e2.Fetch(ctx2, tx, rid)
	if err != nil || string(rec) != "v1-committed" {
		t.Fatalf("loser update survived: %q, %v", rec, err)
	}
	if _, err := e2.Fetch(ctx2, tx, ghost); !errors.Is(err, ErrBadSlot) {
		t.Errorf("loser insert survived: %v", err)
	}
	_ = e2.Commit(ctx2, tx)
}

func TestRecoveryMixedWinnersAndLosers(t *testing.T) {
	e, ctx, data, logv := newTestEngine(t, 32)
	tbl, _ := e.CreateTable(ctx, "t")
	var rids []RID
	for i := 0; i < 10; i++ {
		tx := e.Begin()
		rid, _ := e.Insert(ctx, tx, tbl, []byte(fmt.Sprintf("committed-%02d", i)))
		rids = append(rids, rid)
		if err := e.Commit(ctx, tx); err != nil {
			t.Fatal(err)
		}
	}
	// Two losers in flight at crash time.
	l1 := e.Begin()
	_ = e.Update(ctx, l1, rids[0], []byte("loser1-write"))
	l2 := e.Begin()
	_ = e.Update(ctx, l2, rids[1], []byte("loser2-write"))
	_ = e.wal.Flush(ctx, e.wal.NextLSN())

	e2, ctx2 := crashAndReopen(t, data, logv, 32)
	tx := e2.Begin()
	for i, rid := range rids {
		rec, err := e2.Fetch(ctx2, tx, rid)
		if err != nil {
			t.Fatalf("rid %d: %v", i, err)
		}
		want := fmt.Sprintf("committed-%02d", i)
		if string(rec) != want {
			t.Fatalf("rid %d: %q, want %q", i, rec, want)
		}
	}
	_ = e2.Commit(ctx2, tx)
}

func TestRecoveryAfterCheckpoint(t *testing.T) {
	e, ctx, data, logv := newTestEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "t")
	tx := e.Begin()
	rid1, _ := e.Insert(ctx, tx, tbl, []byte("pre-checkpoint"))
	_ = e.Commit(ctx, tx)
	if err := e.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	tx2 := e.Begin()
	rid2, _ := e.Insert(ctx, tx2, tbl, []byte("post-checkpoint"))
	_ = e.Commit(ctx, tx2)

	e2, ctx2 := crashAndReopen(t, data, logv, 16)
	tx3 := e2.Begin()
	if rec, err := e2.Fetch(ctx2, tx3, rid1); err != nil || string(rec) != "pre-checkpoint" {
		t.Fatalf("pre-ckpt row: %q, %v", rec, err)
	}
	if rec, err := e2.Fetch(ctx2, tx3, rid2); err != nil || string(rec) != "post-checkpoint" {
		t.Fatalf("post-ckpt row: %q, %v", rec, err)
	}
	_ = e2.Commit(ctx2, tx3)
}

func TestRecoveryActiveTxAtCheckpoint(t *testing.T) {
	e, ctx, data, logv := newTestEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "t")
	setup := e.Begin()
	rid, _ := e.Insert(ctx, setup, tbl, []byte("base-version"))
	_ = e.Commit(ctx, setup)

	// A transaction is mid-flight when the checkpoint happens; its
	// records predate the checkpoint, so undo must look further back.
	loser := e.Begin()
	if err := e.Update(ctx, loser, rid, []byte("mid-flight!!")); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	// Crash before commit.
	e2, ctx2 := crashAndReopen(t, data, logv, 16)
	tx := e2.Begin()
	rec, err := e2.Fetch(ctx2, tx, rid)
	if err != nil || string(rec) != "base-version" {
		t.Fatalf("active-at-ckpt loser survived: %q, %v", rec, err)
	}
	_ = e2.Commit(ctx2, tx)
}

func TestRecoveryBTree(t *testing.T) {
	e, ctx, data, logv := newTestEngine(t, 64)
	idx, _ := e.CreateIndex(ctx, "pk")
	tx := e.Begin()
	const n = 400 // several splits at 512-byte pages
	for i := 0; i < n; i++ {
		k := int64(i * 13 % n)
		if err := e.IdxInsert(ctx, tx, idx, k, RID{Page: PageID(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	// Loser deletes some keys, then crash.
	loser := e.Begin()
	for i := int64(0); i < 20; i++ {
		if err := e.IdxDelete(ctx, loser, idx, i); err != nil {
			t.Fatal(err)
		}
	}
	_ = e.wal.Flush(ctx, e.wal.NextLSN())

	e2, ctx2 := crashAndReopen(t, data, logv, 64)
	idx2, err := e2.OpenTable("pk")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		rid, found, err := e2.IdxLookup(ctx2, nil, idx2, i)
		if err != nil || !found {
			t.Fatalf("key %d missing after recovery (found=%v, err=%v)", i, found, err)
		}
		if rid.Page != PageID(i) {
			t.Fatalf("key %d: rid %v", i, rid)
		}
	}
}

func TestRecoveryCleanShutdownIsNoop(t *testing.T) {
	e, ctx, data, logv := newTestEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "t")
	tx := e.Begin()
	rid, _ := e.Insert(ctx, tx, tbl, []byte("clean"))
	_ = e.Commit(ctx, tx)
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	e2, ctx2 := crashAndReopen(t, data, logv, 16)
	if e2.Recovered {
		t.Error("clean shutdown flagged as recovery")
	}
	tx2 := e2.Begin()
	if rec, err := e2.Fetch(ctx2, tx2, rid); err != nil || string(rec) != "clean" {
		t.Fatalf("after clean reopen: %q, %v", rec, err)
	}
	_ = e2.Commit(ctx2, tx2)
}

// insertRows commits rows from..from+n-1 of table name, one transaction
// each.
func insertRows(t *testing.T, e *Engine, ctx *IOCtx, name string, from, n int) {
	t.Helper()
	tbl, err := e.OpenTable(name)
	if err != nil {
		t.Fatal(err)
	}
	for i := from; i < from+n; i++ {
		tx := e.Begin()
		if _, err := e.Insert(ctx, tx, tbl, []byte(fmt.Sprintf("%s-row-%04d-padding", name, i))); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(ctx, tx); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRows requires a scan of table name to visit exactly want rows,
// each one of its own.
func checkRows(t *testing.T, e *Engine, ctx *IOCtx, name string, want int) {
	t.Helper()
	tbl, err := e.OpenTable(name)
	if err != nil {
		t.Fatal(err)
	}
	got, foreign := 0, 0
	if err := e.Scan(ctx, tbl, func(_ RID, rec []byte) bool {
		got++
		if !strings.HasPrefix(string(rec), name+"-row-") {
			foreign++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != want || foreign != 0 {
		t.Fatalf("table %s scans %d rows (%d of another table), want %d", name, got, foreign, want)
	}
}

// TestRecoveryFindsHeapTailGrownAfterCheckpoint: chain extensions after
// the last checkpoint are only in the log, not in the catalog's saved
// tail. Recovery must walk to the chain's real end, or the first
// extension after restart relinks the stale tail and drops every page
// behind it.
func TestRecoveryFindsHeapTailGrownAfterCheckpoint(t *testing.T) {
	e, ctx, data, logv := newTestEngine(t, 16)
	if _, err := e.CreateTable(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	insertRows(t, e, ctx, "a", 0, 20)
	if err := e.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	insertRows(t, e, ctx, "a", 20, 80)
	e2, ctx2 := crashAndReopen(t, data, logv, 16)
	checkRows(t, e2, ctx2, "a", 100)
	insertRows(t, e2, ctx2, "a", 100, 40)
	checkRows(t, e2, ctx2, "a", 140)
}

// TestRecoveryAllocatesPastPagesFormattedAfterCheckpoint: pages one table
// took after the last checkpoint are above the checkpoint's allocator
// mark. Recovery must keep the mark the redo stream reached, or another
// table's next extension reformats them.
func TestRecoveryAllocatesPastPagesFormattedAfterCheckpoint(t *testing.T) {
	e, ctx, data, logv := newTestEngine(t, 16)
	for _, name := range []string{"a", "b"} {
		if _, err := e.CreateTable(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	insertRows(t, e, ctx, "a", 0, 20)
	if err := e.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	insertRows(t, e, ctx, "a", 20, 80)
	e2, ctx2 := crashAndReopen(t, data, logv, 16)
	insertRows(t, e2, ctx2, "b", 0, 60)
	checkRows(t, e2, ctx2, "a", 100)
	checkRows(t, e2, ctx2, "b", 60)
	insertRows(t, e2, ctx2, "a", 100, 1)
	checkRows(t, e2, ctx2, "a", 101)
}

func TestRecoveryRepeatedCrashes(t *testing.T) {
	e, ctx, data, logv := newTestEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "t")
	var rid RID
	tx := e.Begin()
	rid, _ = e.Insert(ctx, tx, tbl, []byte("round-00"))
	_ = e.Commit(ctx, tx)

	for round := 1; round <= 5; round++ {
		e2, ctx2 := crashAndReopen(t, data, logv, 16)
		tx := e2.Begin()
		if err := e2.Update(ctx2, tx, rid, []byte(fmt.Sprintf("round-%02d", round))); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := e2.Commit(ctx2, tx); err != nil {
			t.Fatalf("round %d commit: %v", round, err)
		}
		// Also leave a loser behind each time.
		loser := e2.Begin()
		_ = e2.Update(ctx2, loser, rid, []byte("loser-write"))
		_ = e2.wal.Flush(ctx2, e2.wal.NextLSN())
	}
	e3, ctx3 := crashAndReopen(t, data, logv, 16)
	tx3 := e3.Begin()
	rec, err := e3.Fetch(ctx3, tx3, rid)
	if err != nil || string(rec) != "round-05" {
		t.Fatalf("final state: %q, %v", rec, err)
	}
	_ = e3.Commit(ctx3, tx3)
}
