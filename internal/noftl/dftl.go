package noftl

import (
	"container/list"
	"fmt"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// DFTL is Gupta/Kim/Urgaonkar's demand-based page-mapping FTL: the
// page-mapping FTL (PageFTL — same volume, same configuration) whose
// mapping table does not fit in device RAM. The table lives in
// translation pages on flash and only a small Cached Mapping Table (CMT)
// is held in RAM; a miss reads a translation page and a dirty eviction
// rewrites one (MapReads/MapWrites) — the overhead that makes DFTL up to
// 3.7x slower than pure page mapping in the paper's earlier
// measurements, and the only thing the two comparison rows differ in.
//
// Translation page k covers logical pages [k*perTP, (k+1)*perTP) and is
// an ordinary logical page of the volume, at LPN pages+k above the
// host-visible space, so the volume's own table is the in-RAM Global
// Translation Directory and translation pages are placed, collected and
// salvaged by the code that does it for data. The volume's table also
// stays the ground truth for data pages; the CMT exists to charge the
// I/O a real device would pay.
type DFTL struct {
	v     *Volume
	pages int64 // host-visible logical pages
	perTP int64 // mapping entries per translation page
	cmt   *cmtCache

	mapReads, mapWrites int64
}

// NewDFTL builds a DFTL over dev.
func NewDFTL(dev *flash.Device, cfg ftl.DFTLConfig) (*DFTL, error) {
	f := &DFTL{perTP: int64(dev.Geometry().PageSize / 8)}
	v, err := newPageMappedVolume(dev, ftl.PageFTLConfig{}, f.patch)
	if err != nil {
		return nil, err
	}
	// The top 1/(perTP+1) of the volume's pages hold the translation
	// pages of the rest.
	total := v.LogicalPages()
	f.v, f.pages = v, total-(total+f.perTP)/(f.perTP+1)
	if f.pages <= 0 {
		return nil, fmt.Errorf("noftl: dftl has no usable capacity")
	}
	entries := cfg.CMTEntries
	if entries <= 0 {
		entries = int(f.pages / 32)
	}
	if entries < 8 {
		entries = 8
	}
	f.cmt = newCMTCache(entries)
	return f, nil
}

// Name implements ftl.FTL.
func (f *DFTL) Name() string { return "dftl" }

// LogicalPages implements ftl.FTL.
func (f *DFTL) LogicalPages() int64 { return f.pages }

// Stats implements ftl.FTL: the volume's counters with the translation
// pages' reads and programs moved from the host columns to the map ones.
func (f *DFTL) Stats() ftl.Stats {
	s := f.v.Stats()
	s.HostReads -= f.mapReads
	s.HostWrites -= f.mapWrites
	s.MapReads, s.MapWrites = f.mapReads, f.mapWrites
	return s
}

// CMTHitRate returns the fraction of mapping lookups served from RAM.
func (f *DFTL) CMTHitRate() float64 {
	total := f.cmt.hits + f.cmt.misses
	if total == 0 {
		return 0
	}
	return float64(f.cmt.hits) / float64(total)
}

// Read implements ftl.FTL.
func (f *DFTL) Read(w sim.Waiter, lpn int64, buf []byte) error {
	if err := f.translate(w, lpn); err != nil {
		return err
	}
	return f.v.Read(ioreq.Plain(w), lpn, buf)
}

// Write implements ftl.FTL.
func (f *DFTL) Write(w sim.Waiter, lpn int64, data []byte) error {
	if err := f.translate(w, lpn); err != nil {
		return err
	}
	f.cmt.markDirty(lpn)
	if err := f.v.Write(ioreq.Plain(w), lpn, data); err != nil {
		return err
	}
	return f.evict(w) // what an inline collection under the write patched in
}

// Trim implements ftl.FTL. A legacy SATA-era DFTL never sees trims; the
// method exists for trace replays that model a trim-capable stack.
func (f *DFTL) Trim(w sim.Waiter, lpn int64) error {
	if err := f.translate(w, lpn); err != nil {
		return err
	}
	if f.v.mapped(lpn) {
		f.cmt.markDirty(lpn)
	}
	return f.v.Invalidate(lpn)
}

// translate is the mapping lookup every host command starts with: bring
// lpn's entry into the CMT, then evict down to capacity.
func (f *DFTL) translate(w sim.Waiter, lpn int64) error {
	if lpn < 0 || lpn >= f.pages {
		return fmt.Errorf("%w: lpn %d of %d", ftl.ErrOutOfRange, lpn, f.pages)
	}
	if err := f.fetch(w, lpn); err != nil {
		return err
	}
	return f.evict(w)
}

// fetch makes sure lpn's mapping is present in the CMT, charging a
// translation-page read on a miss.
func (f *DFTL) fetch(w sim.Waiter, lpn int64) error {
	if f.cmt.touch(lpn) {
		return nil
	}
	f.cmt.misses++
	if err := f.readTP(w, lpn/f.perTP); err != nil {
		return err
	}
	f.cmt.insert(lpn, false)
	return nil
}

// readTP reads translation page k, if one was ever written.
func (f *DFTL) readTP(w sim.Waiter, k int64) error {
	if !f.v.mapped(f.pages + k) {
		return nil
	}
	f.mapReads++
	return f.v.Read(ioreq.Plain(w), f.pages+k, nil)
}

// evict removes least-recently-used entries until the CMT is back at its
// capacity. A dirty victim's translation page is written back by
// read-modify-write, and every cached dirty entry of that page is
// flushed with it (the batching optimization from the DFTL paper).
func (f *DFTL) evict(w sim.Waiter) error {
	for f.cmt.over() {
		victim := f.cmt.lru()
		f.cmt.remove(victim.lpn)
		if !victim.dirty {
			continue
		}
		k := victim.lpn / f.perTP
		if err := f.readTP(w, k); err != nil {
			return err
		}
		f.cmt.cleanPage(k, f.perTP)
		f.mapWrites++
		if err := f.v.Write(ioreq.Plain(w), f.pages+k, nil); err != nil {
			return err
		}
	}
	return nil
}

// patch is the volume's relocation hook: garbage collection moved lpn, so
// its entry is fetched (charging translation I/O on a miss — the cost
// that makes DFTL's GC expensive) and dirtied. A moved translation page
// needs nothing: the volume's table is the directory. patch does not
// evict — a write-back from inside a collection needs the space the
// collection is making — so the CMT may exceed its capacity by what one
// inline collection moved, until the host write that triggered it evicts
// (evict's own write-backs loop until the cache fits; Write evicts again
// on its way out).
func (f *DFTL) patch(w sim.Waiter, lpn int64) error {
	if lpn >= f.pages {
		return nil
	}
	if err := f.fetch(w, lpn); err != nil {
		return err
	}
	f.cmt.markDirty(lpn)
	return nil
}

// mapped reports whether a logical page currently has a flash page.
func (v *Volume) mapped(lpn int64) bool {
	return v.dies[v.st.DieOf(lpn)].l2p[v.st.DieLPN(lpn)] != nand.InvalidPPN
}

// cmtCache is an LRU of mapping entries with a capacity its owner
// enforces (over).
type cmtCache struct {
	cap          int
	m            map[int64]*list.Element // of *cmtEntry
	order        *list.List              // front = most recently used
	hits, misses int64
}

type cmtEntry struct {
	lpn   int64
	dirty bool
}

func newCMTCache(capacity int) *cmtCache {
	return &cmtCache{cap: capacity, m: make(map[int64]*list.Element, capacity), order: list.New()}
}

func (c *cmtCache) over() bool { return len(c.m) > c.cap }

// touch marks lpn most-recently-used; reports whether it was cached.
func (c *cmtCache) touch(lpn int64) bool {
	e, ok := c.m[lpn]
	if !ok {
		return false
	}
	c.hits++
	c.order.MoveToFront(e)
	return true
}

func (c *cmtCache) insert(lpn int64, dirty bool) {
	if e, ok := c.m[lpn]; ok {
		n := e.Value.(*cmtEntry)
		n.dirty = n.dirty || dirty
		c.order.MoveToFront(e)
		return
	}
	c.m[lpn] = c.order.PushFront(&cmtEntry{lpn: lpn, dirty: dirty})
}

// markDirty dirties lpn's entry, inserting it if eviction raced it out.
func (c *cmtCache) markDirty(lpn int64) { c.insert(lpn, true) }

// lru returns the least-recently-used entry; the cache must not be empty.
func (c *cmtCache) lru() *cmtEntry { return c.order.Back().Value.(*cmtEntry) }

func (c *cmtCache) remove(lpn int64) {
	if e, ok := c.m[lpn]; ok {
		c.order.Remove(e)
		delete(c.m, lpn)
	}
}

// cleanPage clears the dirty bit of every cached entry belonging to the
// translation page that covers entries [k*perTP, (k+1)*perTP).
func (c *cmtCache) cleanPage(k, perTP int64) {
	for e := c.order.Front(); e != nil; e = e.Next() {
		if n := e.Value.(*cmtEntry); n.lpn/perTP == k {
			n.dirty = false
		}
	}
}
