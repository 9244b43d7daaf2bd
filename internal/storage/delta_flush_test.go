package storage

import (
	"bytes"
	"testing"
)

// Buffer-pool-level tests of the flush decision (delta append vs full
// page) over MemVolume, which implements DeltaVolume for exactly this.

func newDeltaMemEngine(t *testing.T, frames int) (*Engine, *IOCtx, *MemVolume, *MemVolume) {
	t.Helper()
	data := NewMemVolume(512, 4096)
	logv := NewMemVolume(512, 4096)
	ctx := NewIOCtx(nil)
	if err := Format(ctx, data, logv); err != nil {
		t.Fatal(err)
	}
	e, err := Open(ctx, data, logv, EngineConfig{BufferFrames: frames, DeltaWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	return e, ctx, data, logv
}

func TestFlushChoosesDeltaForSmallChange(t *testing.T) {
	e, ctx, data, logv := newDeltaMemEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "t")
	tx := e.Begin()
	rid, _ := e.Insert(ctx, tx, tbl, []byte("abcdefghijklmnopqrstuvwxyz"))
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	// First flush: the freshly allocated heap page has no base image ->
	// it must go out as a full write. (The meta page was read from the
	// volume, so it may legitimately flush as a delta already.)
	if err := e.bp.FlushSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	s := e.bp.Stats()
	if s.FullWrites == 0 {
		t.Fatalf("no full writes on first flush: %+v", s)
	}

	// Small in-place update, second flush: must go out as a delta.
	tx2 := e.Begin()
	if err := e.Update(ctx, tx2, rid, []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZ")); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(ctx, tx2); err != nil {
		t.Fatal(err)
	}
	if err := e.bp.FlushSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	s2 := e.bp.Stats()
	if s2.DeltaWrites <= s.DeltaWrites {
		t.Fatalf("small update flushed without delta: %+v -> %+v", s, s2)
	}
	if s2.DeltaBytes <= 0 || s2.DeltaBytes >= 512 {
		t.Fatalf("delta bytes out of range: %+v", s2)
	}

	// The volume must hold the folded content: evict everything by
	// reopening and fetch.
	e2, err := Open(NewIOCtx(nil), data, logv, EngineConfig{BufferFrames: 16, DeltaWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	tx3 := e2.Begin()
	rec, err := e2.Fetch(NewIOCtx(nil), tx3, rid)
	if err != nil || !bytes.Equal(rec, []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZ")) {
		t.Fatalf("after delta flush: %q, %v", rec, err)
	}
	_ = e2.Commit(NewIOCtx(nil), tx3)
}

func TestFlushFallsBackToFullForLargeChange(t *testing.T) {
	e, ctx, _, _ := newDeltaMemEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "t")
	tx := e.Begin()
	big := make([]byte, 200)
	for i := range big {
		big[i] = byte(i)
	}
	rid, _ := e.Insert(ctx, tx, tbl, big)
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	if err := e.bp.FlushSnapshot(ctx); err != nil {
		t.Fatal(err)
	}

	// Rewrite most of the 512-byte page: the differential exceeds the
	// default 25% budget, so the flush must fall back to a full write.
	tx2 := e.Begin()
	for i := range big {
		big[i] = byte(255 - i)
	}
	if err := e.Update(ctx, tx2, rid, big); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(ctx, tx2); err != nil {
		t.Fatal(err)
	}
	before := e.bp.Stats()
	if err := e.bp.FlushSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	after := e.bp.Stats()
	if after.DeltaWrites != before.DeltaWrites {
		t.Fatalf("oversized change went out as a delta: %+v -> %+v", before, after)
	}
	if after.FullWrites <= before.FullWrites {
		t.Fatalf("no full write for oversized change: %+v -> %+v", before, after)
	}
}

// TestFreshRePinInvalidatesBase is the regression test for the
// Deallocate-then-reuse corruption: a cached frame's base image must be
// discarded when the page is re-pinned fresh, because the volume's
// content (zeroed by Deallocate) no longer matches it. Without the
// hasBase reset, the flush ships a delta against the stale base and
// bytes equal between old and new images are silently wrong on the
// volume.
func TestFreshRePinInvalidatesBase(t *testing.T) {
	data := NewMemVolume(512, 64)
	bp := NewBufferPool(data, nil, 8)
	if !bp.EnableDeltaWrites() {
		t.Fatal("MemVolume should support deltas")
	}
	ctx := NewIOCtx(nil)
	const id = PageID(5)

	// Establish a cached page with a base image on the volume.
	f, err := bp.Pin(ctx, id, true)
	if err != nil {
		t.Fatal(err)
	}
	InitPage(f.Data, id, PageHeap)
	if _, err := f.P.Insert([]byte("old-content")); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, true, 1)
	if err := bp.FlushSnapshot(ctx); err != nil {
		t.Fatal(err)
	}
	if !f.hasBase {
		t.Fatal("flush did not arm the base image")
	}

	// Deallocate (volume now reads zeros) and reallocate the same id;
	// the pin HITS the cached frame.
	data.Deallocate(id)
	f2, err := bp.Pin(ctx, id, true)
	if err != nil {
		t.Fatal(err)
	}
	if f2 != f {
		t.Fatal("expected a cache hit on the same frame")
	}
	InitPage(f2.Data, id, PageHeap)
	if _, err := f2.P.Insert([]byte("new-content")); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f2, true, 2)
	if err := bp.FlushSnapshot(ctx); err != nil {
		t.Fatal(err)
	}

	// The volume must hold exactly the frame's bytes.
	got := make([]byte, 512)
	if err := data.ReadPage(ctx, id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, f2.Data) {
		t.Fatal("volume diverged from frame after fresh re-pin (stale base delta)")
	}
}

func TestDeltaDisabledByDefault(t *testing.T) {
	e, _, _, _ := newTestEngine(t, 16)
	if e.bp.deltaVol != nil {
		t.Fatal("delta path on without opt-in")
	}
}

func TestEnableDeltaRejectsNonDeltaVolume(t *testing.T) {
	// BlockVolume-backed pools must refuse (the block interface cannot
	// express partial writes); a bare stub Volume exercises the same.
	data := NewMemVolume(512, 64)
	bp := NewBufferPool(nonDeltaVolume{v: data}, nil, 4)
	if bp.EnableDeltaWrites() {
		t.Fatal("EnableDeltaWrites accepted a volume without the capability")
	}
	if bp.deltaVol != nil {
		t.Fatal("delta path enabled without capability")
	}
}

// nonDeltaVolume hides MemVolume's WriteDeltaPage (explicit forwarding:
// embedding would promote the method and defeat the test).
type nonDeltaVolume struct{ v *MemVolume }

func (n nonDeltaVolume) PageSize() int { return n.v.PageSize() }
func (n nonDeltaVolume) Pages() int64  { return n.v.Pages() }
func (n nonDeltaVolume) ReadPage(ctx *IOCtx, id PageID, buf []byte) error {
	return n.v.ReadPage(ctx, id, buf)
}
func (n nonDeltaVolume) WritePage(ctx *IOCtx, id PageID, data []byte, h WriteHint) error {
	return n.v.WritePage(ctx, id, data, h)
}
func (n nonDeltaVolume) Deallocate(id PageID)   { n.v.Deallocate(id) }
func (n nonDeltaVolume) Regions() int           { return n.v.Regions() }
func (n nonDeltaVolume) RegionOf(id PageID) int { return n.v.RegionOf(id) }
