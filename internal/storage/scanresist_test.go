package storage

import (
	"fmt"
	"testing"

	"noftl/internal/ioreq"
)

// buildScanTestEngine creates a memory-backed engine with a small pool,
// a "hot" table whose pages fit the pool comfortably and a "big" table
// several pool sizes long. Returns the engine, the hot rows' RIDs (one
// per row) and the big table id.
func buildScanTestEngine(t *testing.T, scanResistant bool, frames int) (*Engine, *IOCtx, []RID, uint32) {
	t.Helper()
	data := NewMemVolume(512, 1<<13)
	logv := NewMemVolume(512, 1<<13)
	ctx := NewIOCtx(nil)
	if err := Format(ctx, data, logv); err != nil {
		t.Fatal(err)
	}
	e, err := Open(ctx, data, logv, EngineConfig{
		BufferFrames:  frames,
		ScanResistant: scanResistant,
	})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := e.CreateTable(ctx, "hot")
	if err != nil {
		t.Fatal(err)
	}
	big, err := e.CreateTable(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	row := make([]byte, 40)
	var hotRIDs []RID
	insert := func(tbl uint32, n int, keep bool) {
		tx := e.Begin()
		for i := 0; i < n; i++ {
			rid, err := e.Insert(ctx, tx, tbl, row)
			if err != nil {
				t.Fatal(err)
			}
			if keep {
				hotRIDs = append(hotRIDs, rid)
			}
		}
		if err := e.Commit(ctx, tx); err != nil {
			t.Fatal(err)
		}
	}
	insert(hot, 120, true)   // ~12 pages of 512B
	insert(big, 4400, false) // ~400 pages — many pool sizes
	return e, ctx, hotRIDs, big
}

// probeHitRate re-reads one hot row per distinct hot page and returns
// the pool hit rate of just those reads (per page, not per row —
// multiple rows of one resident page must not inflate the rate).
func probeHitRate(t *testing.T, e *Engine, ctx *IOCtx, hotRIDs []RID) float64 {
	t.Helper()
	st0 := e.Buffer().Stats()
	last := InvalidPageID
	for _, rid := range hotRIDs {
		if rid.Page == last {
			continue
		}
		last = rid.Page
		if _, err := e.FetchDirty(ctx, rid); err != nil {
			t.Fatal(err)
		}
	}
	d := e.Buffer().Stats().Sub(st0)
	return d.HitRate()
}

// scanWithRereference scans the big table start to finish, touching the
// whole hot working set every rerefPages scanned pages up to lastReref —
// the HTAP pattern of an analytical scan running next to live OLTP
// traffic. The scan keeps going well past the last re-reference, so a
// pool whose only defence is the ref bit loses the set before the scan
// ends.
func scanWithRereference(t *testing.T, e *Engine, ctx *IOCtx, big uint32, hotRIDs []RID, rerefPages, lastReref int) {
	t.Helper()
	pages := 0
	last := InvalidPageID
	err := e.Scan(ctx, big, func(rid RID, rec []byte) bool {
		if rid.Page != last {
			last = rid.Page
			pages++
			if pages <= lastReref && pages%rerefPages == 0 {
				for _, hr := range hotRIDs {
					if _, err := e.FetchDirty(ctx, hr); err != nil {
						t.Error(err)
						return false
					}
				}
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if pages < lastReref+150 {
		t.Fatalf("big table spans %d pages; want a long tail past the last re-reference", pages)
	}
}

// TestScanResistWorkingSetSurvivesScan is the tentpole's regression
// test: a full table scan several pool sizes long must not evict a
// concurrently re-referenced working set from a scan-resistant pool.
// The re-reference cadence (every 120 scanned pages against a 48-frame
// pool) is slow enough that the plain clock loses the set between
// touches — the contrast proves the probationary segment, not the ref
// bits, is what keeps the set resident.
func TestScanResistWorkingSetSurvivesScan(t *testing.T) {
	const frames = 48
	rates := map[bool]float64{}
	for _, scanRes := range []bool{false, true} {
		t.Run(fmt.Sprintf("scanResistant=%v", scanRes), func(t *testing.T) {
			e, ctx, hotRIDs, big := buildScanTestEngine(t, scanRes, frames)
			// Two warm-up passes: the first loads the hot set, the second
			// re-references it (promoting it under the segmented clock).
			probeHitRate(t, e, ctx, hotRIDs)
			probeHitRate(t, e, ctx, hotRIDs)
			scanWithRereference(t, e, ctx, big, hotRIDs, 120, 240)
			rates[scanRes] = probeHitRate(t, e, ctx, hotRIDs)
		})
	}
	if rates[true] < 0.85 {
		t.Errorf("scan-resistant pool: hot-set hit rate %.2f after scan, want >= 0.85", rates[true])
	}
	if rates[false] > 0.5 {
		t.Errorf("plain clock unexpectedly scan-resistant (hit rate %.2f); the contrast no longer proves the mechanism", rates[false])
	}
	st := func() BufferStats {
		e, ctx, hotRIDs, big := buildScanTestEngine(t, true, frames)
		probeHitRate(t, e, ctx, hotRIDs)
		probeHitRate(t, e, ctx, hotRIDs)
		scanWithRereference(t, e, ctx, big, hotRIDs, 120, 240)
		return e.Buffer().Stats()
	}()
	if st.Promotions == 0 {
		t.Error("no promotions counted under the segmented clock")
	}
}

// TestProtectedSegmentCapDemotes: when promotions fill the protected
// segment to its cap, the eviction clock must demote not-recently-used
// protected frames so fresher re-referenced pages can take their place.
func TestProtectedSegmentCapDemotes(t *testing.T) {
	vol := NewMemVolume(512, 1024)
	bp := NewBufferPool(vol, nil, 16)
	bp.EnableScanResist() // protected cap = 12
	ctx := NewIOCtx(nil)
	touch := func(id PageID) {
		f, err := bp.Pin(ctx, id, true)
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(f, false, 0)
	}
	// Promote far more pages than the cap holds: pin twice each.
	for id := PageID(1); id <= 40; id++ {
		touch(id)
		touch(id)
	}
	st := bp.Stats()
	if st.Promotions == 0 {
		t.Fatal("no promotions")
	}
	if st.Demotions == 0 {
		t.Fatal("protected segment filled past its cap without demotions")
	}
	if bp.protCount > bp.protCap {
		t.Fatalf("protected count %d exceeds cap %d", bp.protCount, bp.protCap)
	}
}

// TestGhostPromotion: a page evicted from probation and missed again
// within the ghost window must load straight into the protected
// segment, counted as a ghost hit.
func TestGhostPromotion(t *testing.T) {
	vol := NewMemVolume(512, 256)
	bp := NewBufferPool(vol, nil, 8)
	bp.EnableScanResist()
	bp.ghost.cap = 64 // ghost window wider than the stream
	ctx := NewIOCtx(nil)
	pin := func(id PageID) {
		f, err := bp.Pin(ctx, id, true)
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(f, false, 0)
	}
	pin(1)
	// Stream enough single-touch pages through to evict page 1.
	for id := PageID(10); id < 40; id++ {
		pin(id)
	}
	if bp.table[1] != nil {
		t.Fatal("page 1 still resident; eviction stream too short")
	}
	st0 := bp.Stats()
	f, err := bp.Pin(ctx, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Unpin(f, false, 0)
	d := bp.Stats().Sub(st0)
	if d.GhostHits != 1 {
		t.Fatalf("ghost hits = %d, want 1", d.GhostHits)
	}
	if !f.prot {
		t.Fatal("ghost-hit page not loaded into the protected segment")
	}
}

// TestPrefetchLoadsProbationary: a prefetched page must land unpinned
// and probationary; its first pin counts as a prefetch hit and must NOT
// promote it (it is still single-touch scan traffic).
func TestPrefetchLoadsProbationary(t *testing.T) {
	vol := NewMemVolume(512, 256)
	bp := NewBufferPool(vol, nil, 8)
	bp.EnableScanResist()
	ctx := NewIOCtx(nil)

	if !bp.RequestPrefetch(7) {
		t.Fatal("prefetch request rejected")
	}
	if bp.RequestPrefetch(7) {
		t.Fatal("duplicate prefetch request accepted")
	}
	id, ok := bp.PopPrefetch()
	if !ok || id != 7 {
		t.Fatalf("PopPrefetch = %d,%v", id, ok)
	}
	if err := bp.Prefetch(ctx, ctx.WithClass(ioreq.ClassPrefetch), id); err != nil {
		t.Fatal(err)
	}
	st := bp.Stats()
	if st.Prefetches != 1 {
		t.Fatalf("prefetches = %d, want 1", st.Prefetches)
	}
	f := bp.table[7]
	if f == nil || f.pin != 0 || !f.prefet {
		t.Fatalf("prefetched frame state: %+v", f)
	}
	// First query touch: a hit, attributed to the prefetch, no promotion.
	f2, err := bp.Pin(ctx, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	d := bp.Stats().Sub(st)
	if d.Hits != 1 || d.Misses != 0 || d.PrefetchHits != 1 {
		t.Fatalf("first touch: hits=%d misses=%d prefetchHits=%d", d.Hits, d.Misses, d.PrefetchHits)
	}
	if f2.prot || d.Promotions != 0 {
		t.Fatal("prefetched page promoted on its first (single) touch")
	}
	bp.Unpin(f2, false, 0)
	// Second touch is a genuine re-reference: now it promotes.
	f3, err := bp.Pin(ctx, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if !f3.prot {
		t.Fatal("re-referenced page not promoted")
	}
	bp.Unpin(f3, false, 0)
	// A request for an already-cached page must be refused.
	if bp.RequestPrefetch(7) {
		t.Fatal("prefetch request accepted for a cached page")
	}
	// Out-of-range requests are refused, not queued.
	if bp.RequestPrefetch(PageID(vol.Pages())) {
		t.Fatal("prefetch request accepted beyond the volume")
	}
}
