package storage

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// refPool is the buffer pool's directory as it was kept before the
// page-indexed arrays — a map for the page table, one map per region for
// the dirty pages, a map plus a slice FIFO for the ghost list and a map
// plus a slice for the read-ahead queue — together with the
// scan-resistant clock that drives it and the writers' share of a page.
// Frames are indices into the real pool's frames. Only the synchronous
// path is modelled: one caller on a memory volume, so no load is ever in
// flight and nothing is stolen.
type refPool struct {
	frames    []refFrame
	table     map[PageID]int
	dirty     []map[PageID]int
	ghost     map[PageID]bool
	ghostFIFO []PageID
	queue     []PageID
	queued    map[PageID]bool
	hand      int
	byChunk   bool // writer shares are 64-page chunks mod 3, not regions
	protCount int
	protCap   int
	stats     BufferStats
}

type refFrame struct {
	id                       PageID
	pin                      int
	dirty, ref, prot, prefet bool
	recLSN                   uint64
}

// regionedMem is a memory volume striped over three regions, so the
// die-wise cleaner has three shares.
type regionedMem struct{ *MemVolume }

func (regionedMem) Regions() int           { return 3 }
func (regionedMem) RegionOf(id PageID) int { return int(id % 3) }

func newRefPool(frames int) *refPool {
	r := &refPool{
		frames:  make([]refFrame, frames),
		table:   map[PageID]int{},
		dirty:   []map[PageID]int{{}, {}, {}},
		ghost:   map[PageID]bool{},
		queued:  map[PageID]bool{},
		protCap: max(frames-frames/4, 1),
	}
	for i := range r.frames {
		r.frames[i].id = InvalidPageID
	}
	return r
}

func (r *refPool) promote(i int) {
	if f := &r.frames[i]; !f.prot && r.protCount < r.protCap {
		f.prot = true
		r.protCount++
		r.stats.Promotions++
	}
}

func (r *refPool) ghostAdd(id PageID) {
	if r.ghost[id] {
		return
	}
	for len(r.ghostFIFO) >= len(r.frames) {
		delete(r.ghost, r.ghostFIFO[0])
		r.ghostFIFO = r.ghostFIFO[1:]
	}
	r.ghost[id] = true
	r.ghostFIFO = append(r.ghostFIFO, id)
}

func (r *refPool) ghostTake(id PageID) bool {
	if !r.ghost[id] {
		return false
	}
	delete(r.ghost, id)
	r.ghostFIFO = slices.DeleteFunc(r.ghostFIFO, func(g PageID) bool { return g == id })
	return true
}

func (r *refPool) write(i int) {
	f := &r.frames[i]
	f.dirty = false
	delete(r.dirty[int(f.id%3)], f.id)
	r.stats.FullWrites++
}

// victim sweeps the clock as grabVictim does and claims the frame it
// stops at; -1 if four laps find none.
func (r *refPool) victim() int {
	for scanned := 0; scanned < 4*len(r.frames); scanned++ {
		i := r.hand
		f := &r.frames[i]
		r.hand = (r.hand + 1) % len(r.frames)
		switch {
		case f.pin > 0:
			continue
		case f.ref:
			f.ref = false
			continue
		case f.prot && r.protCount < r.protCap:
			continue
		case f.prot:
			f.prot = false
			r.protCount--
			r.stats.Demotions++
			continue
		}
		f.pin = 1
		if f.dirty {
			r.stats.SyncWrites++
			r.write(i)
		}
		if f.id != InvalidPageID {
			delete(r.table, f.id)
			if !f.prefet {
				r.ghostAdd(f.id)
			}
			r.stats.Evictions++
		}
		f.prefet = false
		return i
	}
	return -1
}

func (r *refPool) pin(id PageID, fresh bool) int {
	if i, ok := r.table[id]; ok {
		f := &r.frames[i]
		f.pin++
		r.stats.Hits++
		if f.prefet {
			f.prefet = false
			r.stats.PrefetchHits++
			if r.ghostTake(id) {
				r.stats.GhostHits++
				r.promote(i)
			}
		} else {
			f.ref = true
			r.promote(i)
		}
		return i
	}
	r.cancel(id)
	i := r.victim()
	r.stats.Misses++
	r.frames[i].id = id
	r.table[id] = i
	if !fresh && r.ghostTake(id) {
		r.stats.GhostHits++
		r.promote(i)
	}
	return i
}

func (r *refPool) unpin(i int, dirty bool, lsn uint64) {
	f := &r.frames[i]
	f.pin--
	if dirty && !f.dirty {
		f.dirty = true
		f.recLSN = lsn
		r.dirty[int(f.id%3)][f.id] = i
	}
}

// share is the writer share of page id: its region, or its chunk.
func (r *refPool) share(id PageID) int {
	if r.byChunk {
		return int(id>>6) % 3
	}
	return int(id % 3)
}

// clean writes the first dirty page of share s that the clock would
// evict as it stands (unpinned, unreferenced, probationary), at most a
// quarter of the pool ahead of the hand, as clean does, and reports
// whether there was one.
func (r *refPool) clean(s int) bool {
	for n := range len(r.frames) / 4 {
		i := (r.hand + n) % len(r.frames)
		if f := &r.frames[i]; f.dirty && f.pin == 0 && !f.ref && !f.prot && r.share(f.id) == s {
			r.stats.AsyncWrites++
			r.write(i)
			return true
		}
	}
	return false
}

func (r *refPool) flushSnapshot() {
	for _, set := range r.dirty {
		for _, id := range slices.Sorted(maps.Keys(set)) {
			if i := set[id]; r.frames[i].pin == 0 {
				r.write(i)
			}
		}
	}
}

func (r *refPool) minRecLSN() uint64 {
	m := ^uint64(0)
	for _, set := range r.dirty {
		for _, i := range set {
			m = min(m, r.frames[i].recLSN)
		}
	}
	return m
}

func (r *refPool) request(id PageID, pages int) bool {
	if _, cached := r.table[id]; id < 0 || int(id) >= pages || cached || r.queued[id] {
		return false
	}
	for len(r.queue) >= 64 {
		delete(r.queued, r.queue[0])
		r.queue = r.queue[1:]
		r.stats.PrefetchDrops++
	}
	r.queued[id] = true
	r.queue = append(r.queue, id)
	return true
}

func (r *refPool) cancel(id PageID) {
	if r.queued[id] {
		delete(r.queued, id)
		r.queue = slices.DeleteFunc(r.queue, func(q PageID) bool { return q == id })
	}
}

func (r *refPool) pop() (PageID, bool) {
	n := len(r.queue)
	if n == 0 {
		return InvalidPageID, false
	}
	id := r.queue[n-1]
	r.queue = r.queue[:n-1]
	delete(r.queued, id)
	return id, true
}

func (r *refPool) prefetch(id PageID) {
	if _, cached := r.table[id]; cached {
		return
	}
	i := r.victim()
	f := &r.frames[i]
	f.id = id
	r.table[id] = i
	f.prefet = true
	f.pin--
	r.stats.Prefetches++
}

// check compares every frame, the dirty sets, the page table, the ghost
// list, the read-ahead queue, the counters and MinRecLSN with bp.
func (r *refPool) check(t *testing.T, step int, bp *BufferPool, index map[*Frame]int) {
	t.Helper()
	for i, f := range bp.frames {
		if got := (refFrame{f.ID, f.pin, f.dirty, f.ref, f.prot, f.prefet, f.recLSN}); got != r.frames[i] {
			t.Fatalf("step %d: frame %d is %+v, reference %+v", step, i, got, r.frames[i])
		}
		for sh, set := range bp.dirty {
			want := r.frames[i].dirty && r.share(r.frames[i].id) == sh
			if got := set[i>>6]>>(i&63)&1 == 1; got != want {
				t.Fatalf("step %d: frame %d (page %d) in share %d's dirty set: %v, reference %v", step, i, f.ID, sh, got, want)
			}
		}
	}
	for id, f := range bp.table {
		want, ok := r.table[PageID(id)]
		if (f != nil) != ok || ok && index[f] != want {
			t.Fatalf("step %d: page %d maps to %v, reference frame %d (present %v)", step, id, f, want, ok)
		}
	}
	var ghosts []PageID
	s := PageID(len(bp.ghost.next) - 1)
	for id := bp.ghost.next[s]; id != s; id = bp.ghost.next[id] {
		ghosts = append(ghosts, id)
	}
	members := 0
	for _, next := range bp.ghost.next[:s] {
		if next >= 0 {
			members++
		}
	}
	if !slices.Equal(ghosts, r.ghostFIFO) || members != len(ghosts) || bp.ghost.n != len(ghosts) {
		t.Fatalf("step %d: ghost list %v (%d members, n %d), reference %v", step, ghosts, members, bp.ghost.n, r.ghostFIFO)
	}
	if !slices.Equal(bp.prefetchQ, r.queue) {
		t.Fatalf("step %d: read-ahead queue %v, reference %v", step, bp.prefetchQ, r.queue)
	}
	for id, q := range bp.queued {
		if q != r.queued[PageID(id)] {
			t.Fatalf("step %d: page %d queued %v, reference %v", step, id, q, !q)
		}
	}
	if bp.Stats() != r.stats || bp.hand != r.hand || bp.protCount != r.protCount {
		t.Fatalf("step %d: stats %+v hand %d protected %d, reference %+v %d %d",
			step, bp.Stats(), bp.hand, bp.protCount, r.stats, r.hand, r.protCount)
	}
	if got, want := bp.MinRecLSN(), r.minRecLSN(); got != want {
		t.Fatalf("step %d: MinRecLSN %d, reference %d", step, got, want)
	}
}

// TestDirectoryMatchesMapReference drives the pool under the
// scan-resistant clock through a seeded mix — fresh and non-fresh pins
// of a hot set and a cold range, dirty unpins, cleans per region
// and global, snapshot flushes, read-ahead requests, cancels, pops and
// loads, and the evictions all of that forces — and checks it step by
// step against refPool. The arrays are an access path: every ghost hit,
// victim, cleaned frame and MinRecLSN must be the maps'.
func TestDirectoryMatchesMapReference(t *testing.T) {
	const (
		pages  = 256
		frames = 16
		steps  = 20000
	)
	for _, seed := range []int64{1, 42, 2015} {
		bp := NewBufferPool(regionedMem{NewMemVolume(512, pages)}, nil, frames)
		bp.EnableScanResist()
		bp.layout(3, false)
		ref := newRefPool(frames)
		index := map[*Frame]int{}
		for i, f := range bp.frames {
			index[f] = i
		}
		ctx := NewIOCtx(nil)
		rng := rand.New(rand.NewSource(seed))
		page := func() PageID {
			if rng.Intn(2) == 0 {
				return PageID(rng.Intn(24)) // the hot set, re-referenced across evictions
			}
			return PageID(rng.Intn(pages))
		}
		var held []int // frames pinned by this test; at most a quarter, so a victim always exists
		var lsn uint64
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 4 && len(held) < frames/4:
				id, fresh := page(), rng.Intn(5) == 0
				f, err := bp.Pin(ctx, id, fresh)
				if err != nil {
					t.Fatalf("seed %d step %d: Pin(%d): %v", seed, step, id, err)
				}
				if i := ref.pin(id, fresh); index[f] != i {
					t.Fatalf("seed %d step %d: Pin(%d) took frame %d, reference %d", seed, step, id, index[f], i)
				}
				held = append(held, index[f])
			case op < 6 && len(held) > 0:
				j := rng.Intn(len(held))
				i, dirty := held[j], rng.Intn(2) == 0
				held = slices.Delete(held, j, j+1)
				lsn++
				bp.Unpin(bp.frames[i], dirty, lsn)
				ref.unpin(i, dirty, lsn)
			case op == 6:
				// Both associations run the one cleaner; only the share
				// of a page differs (its region, or its 64-page chunk).
				// Now and then the layout flips between cleans, with
				// frames dirty and clean under the old one.
				if rng.Intn(8) == 0 {
					ref.byChunk = !ref.byChunk
					bp.layout(3, ref.byChunk)
				}
				s := rng.Intn(3)
				got, err := bp.clean(ctx, s)
				if want := ref.clean(s); err != nil || got != want {
					t.Fatalf("seed %d step %d: clean wrote %v (%v), reference %v", seed, step, got, err, want)
				}
			case op == 7:
				// A scan's read-ahead window: a run of ids, a few out of range.
				for id := PageID(rng.Intn(pages+8) - 4); id%8 != 0; id++ {
					if got, want := bp.RequestPrefetch(id), ref.request(id, pages); got != want {
						t.Fatalf("seed %d step %d: RequestPrefetch(%d) = %v, reference %v", seed, step, id, got, want)
					}
				}
			case op == 8:
				id, ok := bp.PopPrefetch()
				if wid, wok := ref.pop(); id != wid || ok != wok {
					t.Fatalf("seed %d step %d: PopPrefetch = %d %v, reference %d %v", seed, step, id, ok, wid, wok)
				}
				if ok && rng.Intn(3) > 0 {
					if err := bp.Prefetch(ctx, ctx, id); err != nil {
						t.Fatal(err)
					}
					ref.prefetch(id)
				}
			case op == 9 && rng.Intn(10) == 0:
				if err := bp.FlushSnapshot(ctx); err != nil {
					t.Fatal(err)
				}
				ref.flushSnapshot()
			case op == 9:
				id := page()
				bp.cancelPrefetch(id)
				ref.cancel(id)
			}
			ref.check(t, step, bp, index)
		}
		st := bp.Stats()
		if st.GhostHits == 0 || st.Evictions < 10*frames || st.Demotions == 0 || st.SyncWrites == 0 ||
			st.AsyncWrites == 0 || st.Prefetches == 0 || st.PrefetchHits == 0 || st.PrefetchDrops == 0 {
			t.Errorf("seed %d: the mix leaves part of the directory idle: %+v", seed, st)
		}
	}
}

// TestDirectoryAllocatesNothing: once the pool exists, the ghost list,
// the read-ahead queue and the cleaner run in the memory they have.
func TestDirectoryAllocatesNothing(t *testing.T) {
	const pages = 1024
	bp := NewBufferPool(regionedMem{NewMemVolume(512, pages)}, nil, 16)
	bp.EnableScanResist()
	n := 0
	next := func() PageID { n++; return PageID(n % pages) }
	bp.layout(3, false)
	ctx := NewIOCtx(nil)
	f, g := bp.frames[0], bp.frames[1]
	f.ID, g.ID = 4, 7 // both region 1, both within the cleaner's look-ahead
	ops := []struct {
		name string
		fn   func()
	}{
		{"ghost add/take", func() {
			id := next()
			bp.ghost.add(id) // past the cap: forgets the oldest
			bp.ghost.add(next())
			bp.ghost.take(id)
		}},
		{"RequestPrefetch/PopPrefetch/cancelPrefetch", func() {
			bp.RequestPrefetch(next()) // past the cap: drops the oldest
			bp.RequestPrefetch(next())
			id := next()
			bp.RequestPrefetch(id)
			bp.cancelPrefetch(id)
			bp.PopPrefetch()
		}},
		{"markDirty/clean", func() {
			bp.markDirty(f) // due: wakes share 1's (absent) writer
			bp.markDirty(g)
			bp.clean(ctx, 1)
			bp.clean(ctx, 1)
		}},
	}
	for _, op := range ops {
		for i := 0; i < 200; i++ { // fill the queue to its cap and the ghost list past its
			op.fn()
		}
		if a := testing.AllocsPerRun(1000, op.fn); a != 0 {
			t.Errorf("%s: %v allocs per call, want 0", op.name, a)
		}
	}
	if bp.ghost.n != bp.ghost.cap-1 || bp.stats.PrefetchDrops == 0 || f.dirty || g.dirty {
		t.Errorf("after the runs: %d ghosts (cap %d), %d read-aheads dropped, dirty %v %v; want a full list less the last take, drops and none dirty",
			bp.ghost.n, bp.ghost.cap, bp.stats.PrefetchDrops, f.dirty, g.dirty)
	}
}

// TestPinOutOfRange: the page table has one slot per volume page, so a
// page id outside [0, Pages()) is refused with the volume's own error,
// fresh or not, before anything is claimed.
func TestPinOutOfRange(t *testing.T) {
	vol := NewMemVolume(512, 64)
	bp := NewBufferPool(vol, nil, 4)
	ctx := NewIOCtx(nil)
	for _, id := range []PageID{InvalidPageID, -64, 64, 1 << 40} {
		want := vol.ReadPage(ctx, id, make([]byte, 512))
		for _, fresh := range []bool{false, true} {
			f, err := bp.Pin(ctx, id, fresh)
			if f != nil || err == nil || want == nil || err.Error() != want.Error() {
				t.Errorf("Pin(%d, fresh %v) = %v, %v; want nil and %v", id, fresh, f, err, want)
			}
		}
	}
	if st := bp.Stats(); st != (BufferStats{}) {
		t.Errorf("refused pins counted %+v", st)
	}
}
