package storage

import (
	"errors"
	"fmt"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/region"
)

// Crash-recovery tests for the region-managed configuration: the engine
// runs with data AND WAL on one flash device carved into regions — the
// data pages on a page-mapped region, the ARIES log on a native
// append-only region whose mapping is rebuilt from flash on restart.

// newRegionEngine builds a device, carves it with the default DB
// layout, and formats/opens an engine with the WAL on the log region.
func newRegionEngine(t *testing.T) (*Engine, *IOCtx, *flash.Device, []region.Spec) {
	t.Helper()
	dc := flash.EmulatorConfig(4, 24, nand.SLC)
	dc.Nand.StoreData = true
	dev := flash.New(dc)
	layout := region.DefaultDBLayout(1)
	m, err := region.New(dev, layout, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	dataRegion, walRegion, err := m.Mount()
	if err != nil {
		t.Fatal(err)
	}
	data := NewNoFTLVolume(dataRegion.Vol)
	log := NewFlashLog(walRegion.Log)
	ctx := NewIOCtx(nil)
	if err := FormatLog(ctx, data, log); err != nil {
		t.Fatal(err)
	}
	e, err := OpenLog(ctx, data, log, EngineConfig{BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	return e, ctx, dev, layout
}

// crashAndReopenRegions simulates a full host crash: every in-memory
// structure — buffer pool, WAL tail, the data region's page table AND
// the log region's extent list — is dropped. Both mappings are rebuilt
// from flash OOBs, then the engine reopens and replays the log.
func crashAndReopenRegions(t *testing.T, dev *flash.Device, layout []region.Spec) (*Engine, *IOCtx) {
	t.Helper()
	ctx := NewIOCtx(nil)
	m, err := region.Rebuild(dev, layout, nil, false, ctx.Req())
	if err != nil {
		t.Fatalf("region rebuild: %v", err)
	}
	dataRegion, walRegion, err := m.Mount()
	if err != nil {
		t.Fatal(err)
	}
	e, err := OpenLog(ctx, NewNoFTLVolume(dataRegion.Vol), NewFlashLog(walRegion.Log),
		EngineConfig{BufferFrames: 16})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	return e, ctx
}

func TestRegionsRecoveryRedoCommitted(t *testing.T) {
	e, ctx, dev, layout := newRegionEngine(t)
	tbl, _ := e.CreateTable(ctx, "t")
	tx := e.Begin()
	rid, err := e.Insert(ctx, tx, tbl, []byte("durable-on-flash-log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	// Crash WITHOUT flushing data pages: the insert exists only in the
	// WAL, which lives on the flash log region.
	e2, ctx2 := crashAndReopenRegions(t, dev, layout)
	if !e2.Recovered {
		t.Error("engine did not notice recovery work")
	}
	tx2 := e2.Begin()
	rec, err := e2.Fetch(ctx2, tx2, rid)
	if err != nil || string(rec) != "durable-on-flash-log" {
		t.Fatalf("after recovery: %q, %v", rec, err)
	}
	_ = e2.Commit(ctx2, tx2)
}

func TestRegionsRecoveryUndoUncommitted(t *testing.T) {
	e, ctx, dev, layout := newRegionEngine(t)
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
	if err := e.wal.Flush(ctx, e.wal.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if err := e.bp.FlushSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	e2, ctx2 := crashAndReopenRegions(t, dev, layout)
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

// TestRegionsRecoveryAcrossCheckpointsAndTruncation drives enough work
// through checkpoints that the log region truncates (erases whole
// extents) mid-run, then crashes and verifies every committed row.
func TestRegionsRecoveryAcrossCheckpointsAndTruncation(t *testing.T) {
	e, ctx, dev, layout := newRegionEngine(t)
	tbl, _ := e.CreateTable(ctx, "t")
	var rids []RID
	const rows = 200
	for i := 0; i < rows; i++ {
		tx := e.Begin()
		rid, err := e.Insert(ctx, tx, tbl, []byte(fmt.Sprintf("row-%04d-padding-padding-padding", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(ctx, tx); err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		if i%25 == 24 {
			if err := e.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	e2, ctx2 := crashAndReopenRegions(t, dev, layout)
	tx := e2.Begin()
	for i, rid := range rids {
		rec, err := e2.Fetch(ctx2, tx, rid)
		if err != nil || string(rec) != fmt.Sprintf("row-%04d-padding-padding-padding", i) {
			t.Fatalf("row %d after recovery: %q, %v", i, rec, err)
		}
	}
	_ = e2.Commit(ctx2, tx)
}

// TestRegionsRecoveryUndoAcrossCheckpointTruncation pins the
// truncation horizon: a transaction starts, writes, and is still
// active when checkpoints anchor (and truncate) the flash log several
// times. Its pre-checkpoint records must survive truncation so the
// post-crash undo can roll it back.
func TestRegionsRecoveryUndoAcrossCheckpointTruncation(t *testing.T) {
	e, ctx, dev, layout := newRegionEngine(t)
	tbl, _ := e.CreateTable(ctx, "t")
	setup := e.Begin()
	rid, _ := e.Insert(ctx, setup, tbl, []byte("v1-committed"))
	if err := e.Commit(ctx, setup); err != nil {
		t.Fatal(err)
	}

	// The loser updates early, then stays open while committed traffic
	// and checkpoints push the log far past its records.
	loser := e.Begin()
	if err := e.Update(ctx, loser, rid, []byte("v2-uncommitt")); err != nil {
		t.Fatal(err)
	}
	filler := make([]byte, 400)
	for round := 0; round < 6; round++ {
		for i := 0; i < 40; i++ {
			tx := e.Begin()
			if _, err := e.Insert(ctx, tx, tbl, filler); err != nil {
				t.Fatal(err)
			}
			if err := e.Commit(ctx, tx); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Force the loser's dirty page to flash, then crash.
	if err := e.wal.Flush(ctx, e.wal.NextLSN()); err != nil {
		t.Fatal(err)
	}
	if err := e.bp.FlushSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	e2, ctx2 := crashAndReopenRegions(t, dev, layout)
	tx := e2.Begin()
	rec, err := e2.Fetch(ctx2, tx, rid)
	if err != nil || string(rec) != "v1-committed" {
		t.Fatalf("loser survived checkpoint truncation: %q, %v", rec, err)
	}
	_ = e2.Commit(ctx2, tx)
}

// TestRegionsRecoveryMatchesLegacyPath runs the identical transaction
// history on the legacy two-volume configuration and on the
// region-managed one, crashes both, and requires the recovered states
// to agree row for row — the acceptance criterion that hosting the WAL
// on the flash log region changes nothing about recovery semantics.
func TestRegionsRecoveryMatchesLegacyPath(t *testing.T) {
	history := func(t *testing.T, e *Engine, ctx *IOCtx) ([]RID, []RID) {
		tbl, _ := e.CreateTable(ctx, "t")
		var committed, losers []RID
		for i := 0; i < 40; i++ {
			tx := e.Begin()
			rid, err := e.Insert(ctx, tx, tbl, []byte(fmt.Sprintf("committed-%03d", i)))
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Commit(ctx, tx); err != nil {
				t.Fatal(err)
			}
			committed = append(committed, rid)
			if i == 20 {
				if err := e.Checkpoint(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		// One loser transaction, flushed everywhere but uncommitted.
		loser := e.Begin()
		if err := e.Update(ctx, loser, committed[3], []byte("loser-update!")); err != nil {
			t.Fatal(err)
		}
		ghost, _ := e.Insert(ctx, loser, e.mustTable(t), []byte("ghost"))
		losers = append(losers, ghost)
		if err := e.wal.Flush(ctx, e.wal.NextLSN()); err != nil {
			t.Fatal(err)
		}
		if err := e.bp.FlushSnapshot(ctx); err != nil {
			t.Fatal(err)
		}
		return committed, losers
	}

	verify := func(t *testing.T, name string, e *Engine, ctx *IOCtx, committed, losers []RID) {
		tx := e.Begin()
		for i, rid := range committed {
			rec, err := e.Fetch(ctx, tx, rid)
			if err != nil || string(rec) != fmt.Sprintf("committed-%03d", i) {
				t.Fatalf("%s: row %d after recovery: %q, %v", name, i, rec, err)
			}
		}
		for _, rid := range losers {
			if _, err := e.Fetch(ctx, tx, rid); !errors.Is(err, ErrBadSlot) {
				t.Errorf("%s: loser row survived: %v", name, err)
			}
		}
		_ = e.Commit(ctx, tx)
	}

	// Legacy: noftl data volume + memory log volume.
	dc := flash.EmulatorConfig(4, 24, nand.SLC)
	dc.Nand.StoreData = true
	legacyData, legacyLog, legacyE, legacyCtx := func() (Volume, Volume, *Engine, *IOCtx) {
		dev := flash.New(dc)
		m, err := region.New(dev, []region.Spec{{Name: "data", Mapping: region.PageMapped}}, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		data := NewNoFTLVolume(m.Regions()[0].Vol)
		logv := NewMemVolume(dc.Geometry.PageSize, 1<<12)
		ctx := NewIOCtx(nil)
		if err := Format(ctx, data, logv); err != nil {
			t.Fatal(err)
		}
		e, err := Open(ctx, data, logv, EngineConfig{BufferFrames: 16})
		if err != nil {
			t.Fatal(err)
		}
		return data, logv, e, ctx
	}()
	lc, ll := history(t, legacyE, legacyCtx)
	e2, ctx2 := crashAndReopen(t, legacyData, legacyLog, 16)
	verify(t, "legacy", e2, ctx2, lc, ll)

	// Region-managed: same history, WAL on the flash log region.
	re, rctx, dev, layout := newRegionEngine(t)
	rc, rl := history(t, re, rctx)
	re2, rctx2 := crashAndReopenRegions(t, dev, layout)
	verify(t, "regions", re2, rctx2, rc, rl)

	if len(lc) != len(rc) {
		t.Fatalf("histories diverged: %d vs %d committed rows", len(lc), len(rc))
	}
}

// mustTable fetches the test table handle (helper for the shared
// history closure).
func (e *Engine) mustTable(t *testing.T) uint32 {
	t.Helper()
	tbl, err := e.OpenTable("t")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}
