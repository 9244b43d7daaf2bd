package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/noftl"
)

// Crash-recovery tests for the delta-write flush path: the engine runs
// over a real noftl volume with EngineConfig.DeltaWrites on, so
// buffer-pool flushes reach flash as in-place appends and recovery must
// read correctly folded page images. These extend recovery_test.go (the
// MemVolume suite) per the in-place-appends issue.

var deltaEngineCfg = EngineConfig{BufferFrames: 16, DeltaWrites: true}

// newDeltaTestEngine formats and opens an engine whose data volume is a
// NoFTL volume on an emulated flash device, with delta flushes enabled.
func newDeltaTestEngine(t *testing.T) (*Engine, *IOCtx, Volume, Volume, *noftl.Volume) {
	t.Helper()
	dc := flash.EmulatorConfig(2, 16, nand.SLC)
	dc.Nand.StoreData = true
	dev := flash.New(dc)
	nv, err := noftl.New(dev, noftl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := NewNoFTLVolume(nv)
	logv := NewMemVolume(dc.Geometry.PageSize, 1<<12)
	ctx := NewIOCtx(nil)
	if err := Format(ctx, data, logv); err != nil {
		t.Fatal(err)
	}
	e, err := Open(ctx, data, logv, deltaEngineCfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Buffer().deltaVol == nil {
		t.Fatal("delta writes not enabled on a noftl volume")
	}
	return e, ctx, data, logv, nv
}

// crashAndReopenDelta drops the engine (buffer pool, WAL tail) keeping
// only volume state, then reopens with the delta path still enabled.
func crashAndReopenDelta(t *testing.T, data, logv Volume) (*Engine, *IOCtx) {
	t.Helper()
	ctx := NewIOCtx(nil)
	e, err := Open(ctx, data, logv, deltaEngineCfg)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	return e, ctx
}

// TestRecoveryDeltaPathCommitted is the issue's scenario: a committed
// update is flushed to flash as a delta append, then the engine dies
// before the next checkpoint anchors the WAL. After reopen the folded
// page image must match the committed state.
func TestRecoveryDeltaPathCommitted(t *testing.T) {
	e, ctx, data, logv, nv := newDeltaTestEngine(t)
	tbl, _ := e.CreateTable(ctx, "t")
	tx := e.Begin()
	rid, err := e.Insert(ctx, tx, tbl, []byte("version-one-committed-row"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	// Checkpoint: the page reaches flash as a full image, arming the
	// frame's base for subsequent deltas.
	if err := e.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}

	// Small committed update, then a db-writer-style flush: this is the
	// delta append.
	tx2 := e.Begin()
	if err := e.Update(ctx, tx2, rid, []byte("version-TWO-committed-row")); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(ctx, tx2); err != nil {
		t.Fatal(err)
	}
	before := e.Buffer().Stats()
	if err := e.Buffer().FlushSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	after := e.Buffer().Stats()
	if after.DeltaWrites <= before.DeltaWrites {
		t.Fatalf("flush did not use the delta path: %+v -> %+v", before, after)
	}
	if nv.Stats().DeltaWrites == 0 {
		t.Fatal("no delta append reached the flash volume")
	}

	// Crash between the delta append and the next WAL anchor.
	e2, ctx2 := crashAndReopenDelta(t, data, logv)
	tx3 := e2.Begin()
	rec, err := e2.Fetch(ctx2, tx3, rid)
	if err != nil || string(rec) != "version-TWO-committed-row" {
		t.Fatalf("after delta-path recovery: %q, %v", rec, err)
	}
	_ = e2.Commit(ctx2, tx3)
}

// TestRecoveryDeltaPathLoser flushes an UNCOMMITTED update through the
// delta path (the append is on flash), then crashes: undo must roll the
// folded image back to the committed version.
func TestRecoveryDeltaPathLoser(t *testing.T) {
	e, ctx, data, logv, nv := newDeltaTestEngine(t)
	tbl, _ := e.CreateTable(ctx, "t")
	setup := e.Begin()
	rid, _ := e.Insert(ctx, setup, tbl, []byte("committed-base-version-aa"))
	if err := e.Commit(ctx, setup); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}

	loser := e.Begin()
	if err := e.Update(ctx, loser, rid, []byte("loser-dirty-version-aaaaa")); err != nil {
		t.Fatal(err)
	}
	// Force the loser's records AND the dirty page (as a delta) to
	// storage, as if db-writers ran ahead of the commit.
	if err := e.wal.Flush(ctx, e.wal.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if err := e.bp.FlushSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if nv.Stats().DeltaWrites == 0 {
		t.Fatal("loser flush did not exercise the delta path")
	}

	e2, ctx2 := crashAndReopenDelta(t, data, logv)
	tx := e2.Begin()
	rec, err := e2.Fetch(ctx2, tx, rid)
	if err != nil || string(rec) != "committed-base-version-aa" {
		t.Fatalf("loser delta survived recovery: %q, %v", rec, err)
	}
	_ = e2.Commit(ctx2, tx)
}

// TestRecoveryDeltaChainAcrossCrashes builds real multi-record chains
// (several flushed updates per page without a fold) and crashes with
// chains outstanding: the rebuild + recovery pipeline must fold them to
// the committed images, repeatedly.
func TestRecoveryDeltaChainAcrossCrashes(t *testing.T) {
	e, ctx, data, logv, nv := newDeltaTestEngine(t)
	tbl, _ := e.CreateTable(ctx, "t")
	const rows = 8
	rids := make([]RID, rows)
	want := make([][]byte, rows)
	for i := range rids {
		tx := e.Begin()
		want[i] = []byte(fmt.Sprintf("row-%02d-gen-000-payload", i))
		rids[i], _ = e.Insert(ctx, tx, tbl, want[i])
		if err := e.Commit(ctx, tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}

	cur := e
	curCtx := ctx
	for round := 1; round <= 3; round++ {
		var appended int64 // delta records the round's last flush appended
		for gen := 1; gen <= 3; gen++ {
			for i := range rids {
				tx := cur.Begin()
				want[i] = []byte(fmt.Sprintf("row-%02d-gen-%d%02d-payload", i, round, gen))
				if err := cur.Update(curCtx, tx, rids[i], want[i]); err != nil {
					t.Fatalf("round %d gen %d row %d: %v", round, gen, i, err)
				}
				if err := cur.Commit(curCtx, tx); err != nil {
					t.Fatal(err)
				}
			}
			// Flush after every generation so each update becomes its own
			// delta append and chains grow.
			before := nv.Stats().DeltaWrites
			if err := cur.Buffer().FlushSnapshot(curCtx); err != nil {
				t.Fatal(err)
			}
			appended = nv.Stats().DeltaWrites - before
		}
		// A delta append leaves its page a chain until a later full write,
		// and the crash follows the last flush at once.
		if appended == 0 {
			t.Fatalf("round %d: no outstanding delta chains at crash time", round)
		}
		cur, curCtx = crashAndReopenDelta(t, data, logv)
		tx := cur.Begin()
		for i := range rids {
			rec, err := cur.Fetch(curCtx, tx, rids[i])
			if err != nil {
				t.Fatalf("round %d row %d: %v", round, i, err)
			}
			if !bytes.Equal(rec, want[i]) {
				t.Fatalf("round %d row %d: %q, want %q", round, i, rec, want[i])
			}
		}
		if err := cur.Commit(curCtx, tx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryDeltaGhostInsert mirrors TestRecoveryUndoUncommitted on
// the delta stack: a loser's insert flushed via the delta path must not
// survive.
func TestRecoveryDeltaGhostInsert(t *testing.T) {
	e, ctx, data, logv, _ := newDeltaTestEngine(t)
	tbl, _ := e.CreateTable(ctx, "t")
	setup := e.Begin()
	rid, _ := e.Insert(ctx, setup, tbl, []byte("anchor-row-bytes-aaaaaaaa"))
	if err := e.Commit(ctx, setup); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}

	loser := e.Begin()
	ghost, _ := e.Insert(ctx, loser, tbl, []byte("ghost-row-bytes-bbbbbbbb"))
	_ = e.wal.Flush(ctx, e.wal.NextLSN())
	if err := e.bp.FlushSnapshot(ctx); err != nil {
		t.Fatal(err)
	}

	e2, ctx2 := crashAndReopenDelta(t, data, logv)
	tx := e2.Begin()
	if rec, err := e2.Fetch(ctx2, tx, rid); err != nil || string(rec) != "anchor-row-bytes-aaaaaaaa" {
		t.Fatalf("anchor row: %q, %v", rec, err)
	}
	if _, err := e2.Fetch(ctx2, tx, ghost); !errors.Is(err, ErrBadSlot) {
		t.Errorf("ghost insert survived the delta path: %v", err)
	}
	_ = e2.Commit(ctx2, tx)
}
