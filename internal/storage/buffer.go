package storage

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"noftl/internal/delta"
	"noftl/internal/ioreq"
	"noftl/internal/sim"
	"noftl/internal/stats"
)

// Frame is a buffer-pool slot holding one page.
type Frame struct {
	ID       PageID
	Data     []byte
	P        Page // view over Data
	pin      int
	dirty    bool
	ref      bool
	loading  bool
	bulk     bool   // freshly created in the pool, never yet flushed
	prot     bool   // protected clock segment (scan-resistant mode)
	prefet   bool   // loaded by read-ahead, not yet touched by a query
	stealing bool   // read-ahead in flight; a foreground miss may steal the id
	recLSN   uint64 // LSN of first change since last clean
	flushTo  uint64 // log must be durable to here before the page is written
	slot     int    // index in BufferPool.frames
	share    int    // writer share, recorded when the frame became dirty

	// Delta-write state (allocated only when the pool's volume supports
	// page-differential writes). base mirrors the page's content as the
	// volume knows it while hasBase holds; the flush diffs the frame
	// against it, and a frame without one is written whole.
	base    []byte
	hasBase bool

	// pinners wait for the loading page to land, or for the reservation
	// to end.
	pinners sim.WaitQueue
}

// BufferStats counts buffer-pool events.
type BufferStats struct {
	Hits        int64
	Misses      int64
	Evictions   int64
	SyncWrites  int64 // foreground write-backs (eviction of dirty victims)
	AsyncWrites int64 // db-writer write-backs
	DeltaWrites int64 // flushes that went out as page differentials
	DeltaBytes  int64 // differential payload bytes shipped
	FullWrites  int64 // flushes that went out as full page images
	CleanSkips  int64 // dirty frames whose bytes matched the volume exactly

	// Scan-resistant clock accounting (EnableScanResist).
	Promotions int64 // probationary frames promoted on re-reference
	Demotions  int64 // protected frames demoted by the eviction clock
	GhostHits  int64 // misses of recently evicted pages (loaded protected)

	// Read-ahead accounting (Prefetch).
	Prefetches    int64 // read-ahead page loads issued
	PrefetchHits  int64 // pins served by a prefetched frame
	PrefetchDrops int64 // read-ahead requests dropped (queue full)
}

// HitRate is the fraction of pins served from the pool.
func (s BufferStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Sub returns the counter deltas s - o; experiments use it to scope the
// cumulative pool counters to a measurement window.
func (s BufferStats) Sub(o BufferStats) BufferStats {
	return BufferStats{
		Hits:          s.Hits - o.Hits,
		Misses:        s.Misses - o.Misses,
		Evictions:     s.Evictions - o.Evictions,
		SyncWrites:    s.SyncWrites - o.SyncWrites,
		AsyncWrites:   s.AsyncWrites - o.AsyncWrites,
		DeltaWrites:   s.DeltaWrites - o.DeltaWrites,
		DeltaBytes:    s.DeltaBytes - o.DeltaBytes,
		FullWrites:    s.FullWrites - o.FullWrites,
		CleanSkips:    s.CleanSkips - o.CleanSkips,
		Promotions:    s.Promotions - o.Promotions,
		Demotions:     s.Demotions - o.Demotions,
		GhostHits:     s.GhostHits - o.GhostHits,
		Prefetches:    s.Prefetches - o.Prefetches,
		PrefetchHits:  s.PrefetchHits - o.PrefetchHits,
		PrefetchDrops: s.PrefetchDrops - o.PrefetchDrops,
	}
}

// BufferPool caches data-volume pages. Eviction is clock second-chance.
// Db-writers clean the frames the clock is about to evict (clean); a
// dirty victim whose writer lags gets written back synchronously by the
// evicting reader — the contention signal the Figure-4 experiment
// measures.
//
// The page table, the prefetch set and the ghost list are arrays indexed
// by page id (DESIGN.md "Buffer-pool directory").
type BufferPool struct {
	vol    Volume
	wal    *WAL
	frames []*Frame
	table  []*Frame // by page id: the frame holding or loading the page
	hand   int
	stats  BufferStats

	// Db-writer shares (layout): writers of share i park on shares[i]
	// until one of its frames is due. A page's share is its volume
	// region, or with byChunk its 64-page chunk mod len(shares).
	// dirty[i] has the bit of every dirty frame of share i set, by slot.
	shares  []sim.WaitQueue
	byChunk bool
	dirty   [][]uint64

	spare    []*Frame      // placeholders of finished reservations (reserve)
	unpinned sim.WaitQueue // misses that found every frame pinned (release)

	// Delta-write path (EnableDeltaWrites): flushes whose differential
	// fits deltaMax bytes go out as in-place appends instead of full
	// page programs.
	deltaVol DeltaVolume
	deltaMax int
	runs     []delta.Run // the last flush's differential, reused by the next

	// Scan-resistant clock (EnableScanResist): frames live in a
	// probationary or a protected segment; evictions of probationary
	// pages leave a ghost entry so a re-reference shortly after eviction
	// still counts as one.
	scanResist bool
	protCap    int // max protected frames
	protCount  int
	ghost      ghostList

	// Read-ahead request queue (RequestPrefetch/Prefetch), drained by
	// prefetcher processes (Engine.StartPrefetchers).
	prefetchQ   []PageID
	queued      []bool // by page id: in prefetchQ
	prefetchCap int
	idle        sim.WaitQueue // prefetchers with nothing to load

	// readLat, when set, records the latency of every volume read miss
	// — the foreground read latency a query experiences when its page is
	// not cached. The scheduling benchmarks use it for read-tail
	// accounting.
	readLat *stats.Histogram
}

// TrackReadLatency starts recording read-miss latencies into h; nil
// stops recording.
func (bp *BufferPool) TrackReadLatency(h *stats.Histogram) { bp.readLat = h }

// deltaDiffGap is the equal-byte gap below which neighbouring modified
// runs are coalesced when diffing a frame against its base image.
const deltaDiffGap = 16

// NewBufferPool creates a pool of n frames over vol, honouring the
// WAL-before-data rule through wal.
func NewBufferPool(vol Volume, wal *WAL, n int) *BufferPool {
	if n < 4 {
		n = 4
	}
	bp := &BufferPool{
		vol:         vol,
		wal:         wal,
		frames:      make([]*Frame, n),
		table:       make([]*Frame, vol.Pages()),
		queued:      make([]bool, vol.Pages()),
		prefetchCap: 64,
	}
	for i := range bp.frames {
		data := make([]byte, vol.PageSize())
		f := &Frame{ID: InvalidPageID, Data: data, slot: i}
		f.P = Page{B: data}
		bp.frames[i] = f
	}
	bp.layout(vol.Regions(), false)
	return bp
}

// layout divides the pages into n writer shares: by volume region, or
// with byChunk by 64-page chunk mod n. It is the only place a page's
// share changes, so it files every dirty frame anew.
func (bp *BufferPool) layout(n int, byChunk bool) {
	bp.shares, bp.byChunk, bp.dirty = make([]sim.WaitQueue, n), byChunk, make([][]uint64, n)
	for s := range bp.dirty {
		bp.dirty[s] = make([]uint64, (len(bp.frames)+63)/64)
	}
	for _, f := range bp.frames {
		if f.dirty {
			bp.file(f)
		}
	}
}

// file records dirty frame f's share and sets its bit there.
func (bp *BufferPool) file(f *Frame) {
	f.share = bp.shareOf(f.ID)
	bp.dirty[f.share][f.slot>>6] |= 1 << (f.slot & 63)
}

// EnableDeltaWrites switches flushes to the delta-append path when the
// pool's volume supports it (noftl volumes do; legacy block devices
// cannot express a partial write). A flush whose differential encodes to
// at most a quarter page is shipped as a delta; larger changes — and
// pages without an established base image — go out as full page writes.
//
// Returns false when the volume has no delta capability.
func (bp *BufferPool) EnableDeltaWrites() bool {
	dv, ok := bp.vol.(DeltaVolume)
	if !ok {
		return false
	}
	bp.deltaVol = dv
	bp.deltaMax = bp.vol.PageSize() / 4
	for _, f := range bp.frames {
		f.base = make([]byte, bp.vol.PageSize())
		f.hasBase = false
	}
	return true
}

// EnableScanResist segments the eviction clock 2Q/CAR-style. Pages enter
// the pool probationary; only a re-reference while resident — or a miss
// of a recently evicted page (ghost hit) — promotes a page into the
// protected segment. The eviction clock never evicts a protected frame
// directly: it demotes it back to probation and gives it one more lap.
// Single-touch scan traffic therefore cycles through the probationary
// frames and cannot push a re-referenced OLTP working set out of the
// pool.
//
// A quarter of the frames are reserved for probation (the protected
// segment holds at most the other three quarters), and the ghost list
// remembers one pool's worth of evicted pages.
func (bp *BufferPool) EnableScanResist() {
	bp.scanResist = true
	bp.protCap = max(len(bp.frames)-len(bp.frames)/4, 1)
	bp.ghost = newGhostList(bp.vol.Pages(), len(bp.frames))
}

// promote moves a re-referenced probationary frame into the protected
// segment, respecting the segment cap (the clock's demotions free cap
// space as it sweeps).
func (bp *BufferPool) promote(f *Frame) {
	if !bp.scanResist || f.prot || bp.protCount >= bp.protCap {
		return
	}
	f.prot = true
	bp.protCount++
	bp.stats.Promotions++
}

// ghostList is the scan-resistant clock's bounded FIFO of evicted page
// ids, threaded through two arrays indexed by page id. A remembered id
// links to its neighbours through next and prev; the last slot is the
// sentinel that closes the ring (its next is the oldest id, its prev the
// newest), and next[id] < 0 marks an id that is not remembered. Adding,
// taking and dropping the oldest cost O(1) and never allocate.
type ghostList struct {
	next, prev []PageID
	n, cap     int
}

func newGhostList(pages int64, capacity int) ghostList {
	g := ghostList{next: slices.Repeat([]PageID{InvalidPageID}, int(pages)+1), prev: make([]PageID, pages+1), cap: capacity}
	s := PageID(pages)
	g.next[s], g.prev[s] = s, s
	return g
}

// add remembers id as the newest entry, forgetting the oldest ones while
// the list is full. An id already remembered keeps its place.
func (g *ghostList) add(id PageID) {
	if g.next[id] >= 0 {
		return
	}
	s := PageID(len(g.next) - 1)
	for g.n >= g.cap {
		g.unlink(g.next[s])
	}
	last := g.prev[s]
	g.next[last], g.prev[id] = id, last
	g.next[id], g.prev[s] = s, id
	g.n++
}

// take reports (and forgets) whether id is remembered.
func (g *ghostList) take(id PageID) bool {
	if g.next[id] < 0 {
		return false
	}
	g.unlink(id)
	return true
}

func (g *ghostList) unlink(id PageID) {
	next, prev := g.next[id], g.prev[id]
	g.next[prev], g.prev[next] = next, prev
	g.next[id] = InvalidPageID
	g.n--
}

// Stats returns a snapshot of pool counters.
func (bp *BufferPool) Stats() BufferStats { return bp.stats }

// markDirty flags f dirty and files it in its share; a frame the clock
// would evict as it stands is due for its writers.
func (bp *BufferPool) markDirty(f *Frame) {
	f.dirty = true
	bp.file(f)
	if evictable(f) {
		bp.due(f)
	}
}

// Pin fetches a page into the pool and pins it. fresh skips the read for
// newly allocated pages (their content is initialized by the caller).
//
// The page-table entry is reserved with a placeholder BEFORE the first
// wait (victim write-back, page read): concurrent pins of the same page
// must coalesce onto one frame, or updates split across twins and the
// page is silently corrupted.
func (bp *BufferPool) Pin(ctx *IOCtx, id PageID, fresh bool) (*Frame, error) {
	if sp := ctx.Span; sp != nil {
		// Telemetry: the whole pin — hit bookkeeping, victim eviction,
		// miss read — is the span's buffer stage; the volume read nests
		// its own stage inside.
		w := ctx.W
		sp.Enter(ioreq.StageBuffer, w.Now())
		f, err := bp.pin(ctx, id, fresh)
		sp.Exit(w.Now())
		return f, err
	}
	return bp.pin(ctx, id, fresh)
}

func (bp *BufferPool) pin(ctx *IOCtx, id PageID, fresh bool) (*Frame, error) {
	if id < 0 || int(id) >= len(bp.table) {
		return nil, fmt.Errorf("storage: page %d out of range (%d pages)", id, len(bp.table))
	}
	wait := ctx.W
	for {
		if f := bp.table[id]; f != nil {
			if f.loading {
				if f.stealing {
					// The page is mid-flight on a read-ahead at prefetch
					// priority. Waiting here would demote this foreground
					// read to that class, so steal the id: detach the
					// mapping (the prefetcher discards its result) and
					// load the page again at foreground priority.
					bp.table[id] = nil
					continue
				}
				f.pinners.Wait(wait, 0)
				continue
			}
			f.pin++
			bp.stats.Hits++
			if f.prefet {
				// First query touch of a read-ahead page: the load stood in
				// for the miss, so this is still single-touch traffic — the
				// page stays probationary and must not be promoted. One
				// exception: a page ghosted by a FOREGROUND eviction before
				// the prefetch keeps its ghost-hit promotion, exactly as the
				// miss would have granted without read-ahead.
				f.prefet = false
				bp.stats.PrefetchHits++
				if bp.scanResist && bp.ghost.take(id) {
					bp.stats.GhostHits++
					bp.promote(f)
				}
			} else {
				f.ref = true
				bp.promote(f)
			}
			if fresh {
				// The caller reformats a (re)allocated page. The volume's
				// content for this id can no longer be assumed to match
				// the cached base image (a Deallocate may have zeroed
				// it), so the next flush must be a full write.
				f.hasBase = false
				f.bulk = true
			}
			return f, nil
		}
		bp.cancelPrefetch(id)
		r := bp.reserve(id, false)
		f, err := bp.grabVictim(ctx)
		bp.unreserve(r)
		if err != nil {
			return nil, err
		}
		bp.stats.Misses++
		f.ID = id
		f.loading = true
		f.hasBase = false
		bp.table[id] = f
		if fresh {
			// The caller formats the page; the volume's current content
			// is unknown (possibly stale), so no base image until the
			// first full write establishes one.
			InitPage(f.Data, id, PageFree)
			f.bulk = true
		} else {
			f.bulk = false
			t0 := wait.Now()
			err := bp.vol.ReadPage(ctx, id, f.Data)
			if bp.readLat != nil {
				bp.readLat.Add(wait.Now() - t0)
			}
			if err != nil {
				f.loading = false
				f.pinners.Wake()
				if bp.table[id] == f {
					bp.table[id] = nil
				}
				f.ID = InvalidPageID
				bp.release(f)
				return nil, err
			}
			if f.base != nil {
				// The frame now mirrors the volume: deltas can start.
				copy(f.base, f.Data)
				f.hasBase = true
			}
			if bp.scanResist && bp.ghost.take(id) {
				// Evicted and missed again within one ghost window: the
				// page is re-referenced, not scan traffic — protect it.
				bp.stats.GhostHits++
				bp.promote(f)
			}
		}
		f.loading = false
		f.pinners.Wake()
		return f, nil
	}
}

// reserve maps id to a loading placeholder from the free list while its
// caller hunts a victim. Only that call gives it back (unreserve), once
// it no longer asks whether bp.table[id] is still its own.
func (bp *BufferPool) reserve(id PageID, stealing bool) *Frame {
	var r *Frame
	if n := len(bp.spare); n > 0 {
		r, bp.spare = bp.spare[n-1], bp.spare[:n-1]
	} else {
		r = new(Frame)
	}
	r.ID, r.loading, r.stealing = id, true, stealing
	bp.table[id] = r
	return r
}

// unreserve drops r's mapping if it still holds one, sends the pins
// waiting on it back to the page table, and frees r.
func (bp *BufferPool) unreserve(r *Frame) {
	if bp.table[r.ID] == r {
		bp.table[r.ID] = nil
	}
	r.pinners.Wake()
	bp.spare = append(bp.spare, r)
}

// Unpin releases a pin. When dirty, lsn is the log record LSN of the
// change (for the WAL-before-data rule).
func (bp *BufferPool) Unpin(f *Frame, dirty bool, lsn uint64) {
	if f.pin <= 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", f.ID))
	}
	bp.release(f)
	if dirty {
		if !f.dirty {
			f.recLSN = lsn
			bp.markDirty(f)
		}
		if lsn > f.P.LSN() {
			f.P.SetLSN(lsn)
		}
		// The change's record ends at the WAL's current append position
		// (the unpin follows its append immediately); the page must not
		// reach storage before the log does.
		if bp.wal != nil {
			if nl := bp.wal.NextLSN(); nl > f.flushTo {
				f.flushTo = nl
			}
		}
	}
}

// release drops one pin of f. Every pin drop goes through it: a frame
// that loses its last pin wakes the misses waiting for a victim.
func (bp *BufferPool) release(f *Frame) {
	f.pin--
	if f.pin == 0 {
		bp.unpinned.Wake()
	}
}

// grabVictim returns an empty, pinned frame, evicting a page if needed.
// When every frame is pinned it parks until one loses its last pin, and
// fails if none does within 3 sim-s.
//
// Under the scan-resistant clock, protected frames are never evicted
// directly. While the protected segment is under its cap the hand skips
// them entirely (only clearing ref bits as it passes), so a scan of any
// length cycles through the probationary frames alone. Only when the
// segment is at its cap does the hand demote protected frames whose ref
// bit has been cleared, making room for newly promoted pages.
func (bp *BufferPool) grabVictim(ctx *IOCtx) (*Frame, error) {
	laps := 2
	if bp.scanResist {
		laps = 4
	}
	for {
		for scanned := 0; scanned < laps*len(bp.frames); scanned++ {
			f := bp.frames[bp.hand]
			bp.hand = (bp.hand + 1) % len(bp.frames)
			if !evictable(f) {
				bp.age(f)
				continue
			}
			f.pin = 1 // claim
			if f.dirty {
				bp.stats.SyncWrites++
				bp.due(f) // its writer lags: wake it for the frames after this one
				if err := bp.writeFrame(ctx, f); err != nil {
					bp.release(f)
					return nil, err
				}
			}
			// The write-back waited on device I/O; another process may
			// have pinned (or re-dirtied) the page meanwhile — it is no
			// longer evictable.
			if f.pin != 1 || f.dirty {
				bp.release(f)
				continue
			}
			if f.ID != InvalidPageID {
				// Only drop the mapping if it still points at this frame
				// (a reservation placeholder may have claimed the id).
				if bp.table[f.ID] == f {
					bp.table[f.ID] = nil
				}
				// Never ghost a prefetched page no query touched: the
				// scan's own upcoming miss would ghost-promote it, moving
				// single-touch scan traffic into the protected segment.
				if bp.scanResist && !f.prefet {
					bp.ghost.add(f.ID)
				}
				bp.stats.Evictions++
			}
			f.prefet = false
			return f, nil
		}
		if !bp.unpinned.Wait(ctx.W, ctx.W.Now()+3*sim.Second) {
			return nil, fmt.Errorf("storage: buffer pool wedged (all %d frames pinned)", len(bp.frames))
		}
	}
}

// evictable reports whether the clock takes f when the hand reaches it:
// unpinned, not loading, reference bit clear and not protected. The
// eviction clock and the db-writers' cleaner both ask it, so a writer
// cleans exactly the frames the clock would evict.
func evictable(f *Frame) bool { return f.pin == 0 && !f.loading && !f.ref && !f.prot }

// age is the hand passing a frame it does not evict: the reference bit
// clears, or a protected frame at the segment's cap is demoted to
// probation. A dirty frame that this makes evictable is due.
func (bp *BufferPool) age(f *Frame) {
	if f.pin > 0 || f.loading {
		return
	}
	switch {
	case f.ref:
		f.ref = false
	case f.prot && bp.protCount >= bp.protCap:
		// Segment at its cap: demote the not-recently-used frame back to
		// probation so promotions keep flowing; it gets one more lap
		// before it can actually fall out.
		f.prot = false
		bp.protCount--
		bp.stats.Demotions++
	default:
		return // protected and under budget: untouchable
	}
	if f.dirty && evictable(f) {
		bp.due(f)
	}
}

// writeFrame flushes WAL up to the page LSN, then writes the page.
// The caller must hold a pin.
//
// The dirty flag clears BEFORE the device write: the volume captures the
// page bytes when the write is submitted, so a modification arriving
// during the write's latency re-dirties the frame and must not be wiped
// afterwards (clearing after the wait silently loses that update).
func (bp *BufferPool) writeFrame(ctx *IOCtx, f *Frame) error {
	if !f.dirty {
		return nil
	}
	if bp.wal != nil {
		// WAL-before-data from a write-back is background work: it keeps
		// the flusher's declared class (flushBg) instead of jumping to
		// the commit path's WAL priority.
		if err := bp.wal.flushBg(ctx, f.flushTo); err != nil {
			return err
		}
	}
	f.dirty = false
	bp.dirty[f.share][f.slot>>6] &^= 1 << (f.slot & 63)
	if err := bp.writeFrameData(ctx, f); err != nil {
		if !f.dirty { // not re-dirtied during the write
			bp.markDirty(f)
		}
		return err
	}
	return nil
}

// writeFrameData ships the frame to the volume, as a page differential
// when the delta path is enabled and the change is small enough, as a
// full page image otherwise.
func (bp *BufferPool) writeFrameData(ctx *IOCtx, f *Frame) error {
	if bp.deltaVol != nil && f.hasBase {
		// The differential is the diff against what the volume holds, so
		// no mutator needs to report what it changed.
		bp.runs = delta.Diff(bp.runs, f.base, f.Data, deltaDiffGap)
		if len(bp.runs) == 0 {
			// The bytes match what the volume holds (e.g. an update that
			// was undone in place): nothing to write.
			bp.stats.CleanSkips++
			return nil
		}
		if payload := delta.EncodedSize(bp.runs); payload <= bp.deltaMax {
			enc := delta.Encode(bp.runs, f.Data)
			if err := bp.deltaVol.WriteDeltaPage(ctx, f.ID, enc); err == nil {
				bp.stats.DeltaWrites++
				bp.stats.DeltaBytes += int64(len(enc))
				// The volume now holds base ⊕ enc exactly (the payload
				// bytes were captured at submission), regardless of
				// modifications that raced the device wait.
				if aerr := delta.Apply(f.base, enc); aerr != nil {
					return aerr
				}
				return nil
			}
			// Delta rejected (e.g. too large for a delta page): fall
			// through to the full-page path.
		}
	}
	if err := bp.vol.WritePage(ctx, f.ID, f.Data, bp.hintFor(f)); err != nil {
		return err
	}
	f.bulk = false
	bp.stats.FullWrites++
	if f.base != nil {
		// The volume captured the bytes at submission; if the frame was
		// re-dirtied during the device wait, the captured image may
		// differ from f.Data now — only a quiescent frame re-arms the
		// delta path.
		if f.dirty {
			f.hasBase = false
		} else {
			copy(f.base, f.Data)
			f.hasBase = true
		}
	}
	return nil
}

// hintFor derives the placement hint for a flush from what the engine
// knows about the page. Heap pages being flushed for the first time
// since their creation are bulk appends (loads, history inserts): they
// go to the cold frontier, where their blocks fill with same-aged data
// and die together. Everything else leaving the pool was modified
// recently — indexes and re-flushed heap pages are the hot stream.
func (bp *BufferPool) hintFor(f *Frame) WriteHint {
	if f.bulk && f.P.Type() == PageHeap {
		return HintColdData
	}
	return HintHotData
}

// RequestPrefetch queues a page for background read-ahead. It reports
// whether the request was accepted; cached pages and duplicates are
// ignored. A full queue drops the OLDEST request (read-ahead is
// best-effort, and the oldest entry describes the scan position
// furthest in the past — the scan has likely already passed it).
func (bp *BufferPool) RequestPrefetch(id PageID) bool {
	if id < 0 || int64(id) >= bp.vol.Pages() {
		return false
	}
	if bp.table[id] != nil || bp.queued[id] {
		return false
	}
	for len(bp.prefetchQ) >= bp.prefetchCap {
		bp.queued[bp.prefetchQ[0]] = false
		bp.prefetchQ = slices.Delete(bp.prefetchQ, 0, 1) // keeps the capacity, unlike [1:]
		bp.stats.PrefetchDrops++
	}
	bp.queued[id] = true
	bp.prefetchQ = append(bp.prefetchQ, id)
	bp.idle.Grant() // each request wakes one idle prefetcher
	return true
}

// cancelPrefetch withdraws a still-queued read-ahead request for id: a
// foreground miss beat the prefetcher to the page, and serving it at
// prefetch priority would invert the scheduler's classes (the query
// would wait on a read that programs and other reads overtake).
func (bp *BufferPool) cancelPrefetch(id PageID) {
	if !bp.queued[id] {
		return
	}
	bp.queued[id] = false
	i := slices.Index(bp.prefetchQ, id)
	bp.prefetchQ = slices.Delete(bp.prefetchQ, i, i+1)
}

// PopPrefetch removes the NEWEST queued read-ahead request (prefetcher
// processes drain the queue with it). LIFO order keeps the prefetchers
// working just ahead of the scan's current position: when they cannot
// keep up, the entries that rot in the queue are the oldest ones —
// pages the scan has already read at foreground priority — and those
// are exactly the ones drop-on-full discards.
func (bp *BufferPool) PopPrefetch() (PageID, bool) {
	if len(bp.prefetchQ) == 0 {
		return InvalidPageID, false
	}
	id := bp.prefetchQ[len(bp.prefetchQ)-1]
	bp.prefetchQ = bp.prefetchQ[:len(bp.prefetchQ)-1]
	bp.queued[id] = false
	return id, true
}

// Prefetch loads one page into the pool without pinning it. The read
// goes down on load, the prefetcher's context declaring
// ioreq.ClassPrefetch, so it never outranks foreground traffic at a
// scheduler; making room first is ordinary write-back and runs on ctx.
// The page lands probationary with its ref bit clear: if no query
// touches it before the clock comes around, it is the first thing
// evicted.
func (bp *BufferPool) Prefetch(ctx, load *IOCtx, id PageID) error {
	if id < 0 || int64(id) >= bp.vol.Pages() || bp.table[id] != nil {
		return nil
	}
	// The reservation is stealable from the start: a foreground miss
	// arriving while we are still hunting a victim must not wait behind
	// this low-priority load either.
	r := bp.reserve(id, true)
	f, err := bp.grabVictim(ctx)
	stolen := bp.table[id] != r
	bp.unreserve(r)
	if err != nil {
		return err
	}
	if stolen {
		// Stolen (or re-reserved) during the victim grab: the winner
		// loads the page at foreground priority; release our claim.
		f.ID = InvalidPageID
		bp.release(f)
		return nil
	}
	f.ID = id
	f.loading = true
	f.stealing = true
	f.hasBase = false
	f.bulk = false
	bp.table[id] = f
	err = bp.vol.ReadPage(load, id, f.Data)
	f.loading = false
	f.stealing = false
	if err != nil || bp.table[id] != f {
		// Read failed, or a foreground miss stole the id while the
		// low-priority read was in flight (the winner re-reads at
		// foreground class): discard this frame's content.
		if bp.table[id] == f {
			bp.table[id] = nil
		}
		f.ID = InvalidPageID
		bp.release(f)
		return err
	}
	if f.base != nil {
		copy(f.base, f.Data)
		f.hasBase = true
	}
	f.prefet = true
	bp.release(f) // the victim claim: prefetched pages sit unpinned
	bp.stats.Prefetches++
	return nil
}

// shareOf is the writer share a page belongs to.
func (bp *BufferPool) shareOf(id PageID) int {
	if bp.byChunk {
		return int(id>>6) % len(bp.shares)
	}
	return bp.vol.RegionOf(id)
}

// due hands a dirty frame that became due for write-back to a parked
// writer of its share.
func (bp *BufferPool) due(f *Frame) { bp.shares[f.share].Grant() }

// clean writes back the frame of share s that the eviction clock would
// take first: dirty and evictable, at most a quarter of the pool ahead
// of the hand. It reports false when there is none; a writer then parks
// until its share has a frame due.
func (bp *BufferPool) clean(ctx *IOCtx, s int) (bool, error) {
	n := len(bp.frames)
	end := bp.hand + max(n/4, 1)
	f := bp.firstDue(bp.dirty[s], bp.hand, min(end, n))
	if f == nil && end > n {
		f = bp.firstDue(bp.dirty[s], 0, end-n)
	}
	if f == nil {
		return false, nil
	}
	f.pin++
	bp.stats.AsyncWrites++
	err := bp.writeFrame(ctx, f)
	bp.release(f)
	return err == nil, err
}

// firstDue returns the first evictable frame of the dirty set among
// slots [lo, hi), or nil.
func (bp *BufferPool) firstDue(set []uint64, lo, hi int) *Frame {
	w := lo >> 6
	for word := set[w] >> (lo & 63) << (lo & 63); ; word = set[w] {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if i >= hi {
				return nil
			}
			if f := bp.frames[i]; evictable(f) {
				return f
			}
		}
		if w++; w<<6 >= hi {
			return nil
		}
	}
}

// MinRecLSN returns the oldest first-change LSN among dirty pages (the
// redo start bound for fuzzy checkpoints), or ^0 when nothing is dirty.
func (bp *BufferPool) MinRecLSN() uint64 {
	min := ^uint64(0)
	for _, f := range bp.frames {
		if f.dirty && f.recLSN < min {
			min = f.recLSN
		}
	}
	return min
}

// FlushSnapshot writes back the pages dirty at call time, without
// chasing pages dirtied afterwards — the fuzzy-checkpoint flush that
// terminates under constant load. Pinned or loading pages are skipped:
// their recLSN keeps them covered by the checkpoint's redo bound, which
// Engine.Checkpoint reads after the flush.
func (bp *BufferPool) FlushSnapshot(ctx *IOCtx) error {
	var snapshot []*Frame // the dirty frames by region, then page
	for _, f := range bp.frames {
		if f.dirty {
			snapshot = append(snapshot, f)
		}
	}
	slices.SortFunc(snapshot, func(a, b *Frame) int {
		return cmp.Or(cmp.Compare(bp.vol.RegionOf(a.ID), bp.vol.RegionOf(b.ID)), cmp.Compare(a.ID, b.ID))
	})
	for _, f := range snapshot {
		if !f.dirty || f.pin > 0 || f.loading {
			continue
		}
		f.pin++
		err := bp.writeFrame(ctx, f)
		bp.release(f)
		if err != nil {
			return err
		}
	}
	return nil
}
