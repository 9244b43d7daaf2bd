package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// newTestEngine formats and opens an engine on memory volumes.
func newTestEngine(t *testing.T, frames int) (*Engine, *IOCtx, *MemVolume, *MemVolume) {
	t.Helper()
	data := NewMemVolume(512, 4096)
	logv := NewMemVolume(512, 4096)
	ctx := NewIOCtx(nil)
	if err := Format(ctx, data, logv); err != nil {
		t.Fatal(err)
	}
	e, err := Open(ctx, data, logv, EngineConfig{BufferFrames: frames})
	if err != nil {
		t.Fatal(err)
	}
	return e, ctx, data, logv
}

func TestEngineInsertFetch(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 16)
	tbl, err := e.CreateTable(ctx, "t")
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	rid, err := e.Insert(ctx, tx, tbl, []byte("row-one"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	tx2 := e.Begin()
	rec, err := e.Fetch(ctx, tx2, rid)
	if err != nil || string(rec) != "row-one" {
		t.Fatalf("fetch = %q, %v", rec, err)
	}
	if err := e.Commit(ctx, tx2); err != nil {
		t.Fatal(err)
	}
	if e.Commits != 2 {
		t.Errorf("Commits = %d", e.Commits)
	}
}

func TestEngineUpdateAndAbort(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "t")
	tx := e.Begin()
	rid, _ := e.Insert(ctx, tx, tbl, []byte("v1-original"))
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}

	tx2 := e.Begin()
	if err := e.Update(ctx, tx2, rid, []byte("v2-modified")); err != nil {
		t.Fatal(err)
	}
	if err := e.Abort(ctx, tx2); err != nil {
		t.Fatal(err)
	}
	tx3 := e.Begin()
	rec, err := e.Fetch(ctx, tx3, rid)
	if err != nil || string(rec) != "v1-original" {
		t.Fatalf("after abort: %q, %v", rec, err)
	}
	_ = e.Commit(ctx, tx3)
}

func TestEngineAbortRemovesInsert(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "t")
	tx := e.Begin()
	rid, _ := e.Insert(ctx, tx, tbl, []byte("ghost"))
	if err := e.Abort(ctx, tx); err != nil {
		t.Fatal(err)
	}
	tx2 := e.Begin()
	if _, err := e.Fetch(ctx, tx2, rid); !errors.Is(err, ErrBadSlot) {
		t.Errorf("aborted insert visible: %v", err)
	}
	_ = e.Commit(ctx, tx2)
}

func TestEngineDeleteDeferredToCommit(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "t")
	tx := e.Begin()
	rid, _ := e.Insert(ctx, tx, tbl, []byte("to-die"))
	_ = e.Commit(ctx, tx)

	tx2 := e.Begin()
	if err := e.Delete(ctx, tx2, tbl, rid); err != nil {
		t.Fatal(err)
	}
	_ = e.Abort(ctx, tx2) // abort: record must survive
	tx3 := e.Begin()
	if _, err := e.Fetch(ctx, tx3, rid); err != nil {
		t.Fatalf("record gone after aborted delete: %v", err)
	}
	if err := e.Delete(ctx, tx3, tbl, rid); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(ctx, tx3); err != nil {
		t.Fatal(err)
	}
	tx4 := e.Begin()
	if _, err := e.Fetch(ctx, tx4, rid); !errors.Is(err, ErrBadSlot) {
		t.Errorf("record alive after committed delete: %v", err)
	}
	_ = e.Commit(ctx, tx4)
}

func TestEngineScanAndChainGrowth(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "big")
	const n = 200
	tx := e.Begin()
	for i := 0; i < n; i++ {
		rec := []byte(fmt.Sprintf("record-%04d-padding-padding", i))
		if _, err := e.Insert(ctx, tx, tbl, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := e.Scan(ctx, tbl, func(rid RID, rec []byte) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("scanned %d, want %d", count, n)
	}
}

func TestEngineLockConflictTimesOut(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 16)
	e.lt.timeout = 500 // tiny simulated timeout
	tbl, _ := e.CreateTable(ctx, "t")
	tx := e.Begin()
	rid, _ := e.Insert(ctx, tx, tbl, []byte("locked"))
	_ = e.Commit(ctx, tx)

	t1 := e.Begin()
	if err := e.Update(ctx, t1, rid, []byte("writer1")); err != nil {
		t.Fatal(err)
	}
	t2 := e.Begin()
	err := e.Update(ctx, t2, rid, []byte("writer2"))
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("second writer: %v, want ErrLockTimeout", err)
	}
	_ = e.Abort(ctx, t2)
	if err := e.Commit(ctx, t1); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeInsertLookup(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 32)
	idx, err := e.CreateIndex(ctx, "pk")
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	const n = 500 // forces several levels at 512-byte pages
	for i := 0; i < n; i++ {
		key := int64(i * 7 % n) // shuffled order
		rid := RID{Page: PageID(key), Slot: uint16(key % 100)}
		if err := e.IdxInsert(ctx, tx, idx, key, rid); err != nil {
			t.Fatalf("insert %d: %v", key, err)
		}
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		rid, found, err := e.IdxLookup(ctx, nil, idx, i)
		if err != nil || !found {
			t.Fatalf("lookup %d: found=%v err=%v", i, found, err)
		}
		if rid.Page != PageID(i) {
			t.Fatalf("lookup %d: rid %v", i, rid)
		}
	}
	if _, found, _ := e.IdxLookup(ctx, nil, idx, int64(n+10)); found {
		t.Error("phantom key found")
	}
}

func TestBTreeDuplicateRejected(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 16)
	idx, _ := e.CreateIndex(ctx, "u")
	tx := e.Begin()
	if err := e.IdxInsert(ctx, tx, idx, 5, RID{Page: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.IdxInsert(ctx, tx, idx, 5, RID{Page: 2}); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("duplicate: %v", err)
	}
	_ = e.Commit(ctx, tx)
}

func TestBTreeRange(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 32)
	idx, _ := e.CreateIndex(ctx, "r")
	tx := e.Begin()
	for i := 0; i < 300; i++ {
		if err := e.IdxInsert(ctx, tx, idx, int64(i*2), RID{Page: PageID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	_ = e.Commit(ctx, tx)
	var keys []int64
	if err := e.IdxRange(ctx, idx, 100, 140, func(k int64, rid RID) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []int64{100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120,
		122, 124, 126, 128, 130, 132, 134, 136, 138, 140}
	if len(keys) != len(want) {
		t.Fatalf("range returned %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("range[%d] = %d, want %d", i, keys[i], want[i])
		}
	}
}

func TestBTreeDeleteAndAbortRestores(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 32)
	idx, _ := e.CreateIndex(ctx, "d")
	tx := e.Begin()
	for i := int64(0); i < 100; i++ {
		_ = e.IdxInsert(ctx, tx, idx, i, RID{Page: PageID(i)})
	}
	_ = e.Commit(ctx, tx)

	tx2 := e.Begin()
	if err := e.IdxDelete(ctx, tx2, idx, 42); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := e.IdxLookup(ctx, tx2, idx, 42); found {
		t.Error("deleted key still visible inside tx")
	}
	_ = e.Abort(ctx, tx2)
	rid, found, _ := e.IdxLookup(ctx, nil, idx, 42)
	if !found || rid.Page != 42 {
		t.Error("aborted delete did not restore key")
	}

	tx3 := e.Begin()
	_ = e.IdxDelete(ctx, tx3, idx, 42)
	_ = e.Commit(ctx, tx3)
	if _, found, _ := e.IdxLookup(ctx, nil, idx, 42); found {
		t.Error("committed delete left key")
	}
	if err := func() error {
		tx := e.Begin()
		defer e.Commit(ctx, tx)
		return e.IdxDelete(ctx, tx, idx, 42)
	}(); !errors.Is(err, ErrNoKey) {
		t.Errorf("delete of missing key: %v", err)
	}
}

// Property: the B-tree agrees with a model map under random
// insert/delete sequences and maintains sorted order.
func TestBTreeModelProperty(t *testing.T) {
	type op struct {
		Key  uint16
		Kind uint8
	}
	f := func(ops []op) bool {
		e, ctx, _, _ := newTestEngine(&testing.T{}, 64)
		idx, err := e.CreateIndex(ctx, "m")
		if err != nil {
			return false
		}
		model := map[int64]RID{}
		tx := e.Begin()
		for _, o := range ops {
			k := int64(o.Key % 2048)
			if o.Kind%2 == 0 {
				rid := RID{Page: PageID(k), Slot: uint16(o.Kind)}
				err := e.IdxInsert(ctx, tx, idx, k, rid)
				if _, exists := model[k]; exists {
					if !errors.Is(err, ErrDuplicateKey) {
						return false
					}
				} else if err != nil {
					return false
				} else {
					model[k] = rid
				}
			} else {
				err := e.IdxDelete(ctx, tx, idx, k)
				if _, exists := model[k]; exists {
					if err != nil {
						return false
					}
					delete(model, k)
				} else if !errors.Is(err, ErrNoKey) {
					return false
				}
			}
		}
		if e.Commit(ctx, tx) != nil {
			return false
		}
		// Full range scan must equal the sorted model.
		var prev int64 = -1
		count := 0
		if e.IdxRange(ctx, idx, 0, 1<<20, func(k int64, rid RID) bool {
			if k <= prev {
				return false
			}
			if want, ok := model[k]; !ok || want != rid {
				return false
			}
			prev = k
			count++
			return true
		}) != nil {
			return false
		}
		return count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDropTableDeallocatesPages(t *testing.T) {
	e, ctx, data, _ := newTestEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "victim")
	tx := e.Begin()
	for i := 0; i < 50; i++ {
		if _, err := e.Insert(ctx, tx, tbl, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	_ = e.Commit(ctx, tx)
	if err := e.bp.FlushSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	before := e.alloc.nextFree
	if err := e.DropTable(ctx, "victim"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OpenTable("victim"); !errors.Is(err, ErrNoTable) {
		t.Error("dropped table still open-able")
	}
	if len(e.alloc.free) == 0 {
		t.Error("dropped pages not returned to the allocator")
	}
	_ = before
	_ = data
}

func TestBTreeDeepSplits(t *testing.T) {
	// Enough keys at 512-byte pages to force inner-node splits and a
	// three-level tree (regression: inner split used to overrun the
	// page buffer).
	e, ctx, _, _ := newTestEngine(t, 128)
	idx, _ := e.CreateIndex(ctx, "deep")
	const n = 3000
	tx := e.Begin()
	for i := 0; i < n; i++ {
		key := int64(i*2654435761) % (1 << 40) // scattered order
		if key < 0 {
			key = -key
		}
		if err := e.IdxInsert(ctx, tx, idx, key, RID{Page: PageID(i)}); err != nil {
			if errors.Is(err, ErrDuplicateKey) {
				continue
			}
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	// Everything must be findable and ordered.
	var prev int64 = -1
	count := 0
	if err := e.IdxRange(ctx, idx, 0, 1<<41, func(k int64, rid RID) bool {
		if k <= prev {
			t.Fatalf("order violation: %d after %d", k, prev)
		}
		prev = k
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count < n*9/10 {
		t.Fatalf("range found %d of %d", count, n)
	}
}

// TestLoadRowsAbortsAFailedBatch: a generator row that cannot fit a page
// fails the load, rolls back the batch in hand and leaves no transaction
// open; the batches committed before it stay.
func TestLoadRowsAbortsAFailedBatch(t *testing.T) {
	e, ctx, _, _ := newTestEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "t")
	idx, _ := e.CreateIndex(ctx, "t.pk")
	err := e.LoadRows(ctx, tbl, idx, 600, func(i int64) (int64, []byte) {
		if i == 550 {
			return i, make([]byte, 512)
		}
		return i, []byte("row")
	})
	if !errors.Is(err, ErrRecordSize) {
		t.Fatalf("load = %v, want ErrRecordSize", err)
	}
	if open := len(e.txs) - len(e.spareTx); open != 0 {
		t.Fatalf("%d transactions left open after the failed load", open)
	}
	for key, want := range map[int64]bool{499: true, 500: false, 549: false} {
		if _, found, err := e.IdxLookup(ctx, nil, idx, key); err != nil || found != want {
			t.Errorf("key %d: found=%v, %v; want found=%v", key, found, err, want)
		}
	}
}
