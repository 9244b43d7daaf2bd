package ftl

import (
	"fmt"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// DFTLConfig tunes the demand-based FTL.
type DFTLConfig struct {
	// OverProvision is the hidden capacity fraction. Default 0.10.
	OverProvision float64
	// CMTEntries is the total cached-mapping-table capacity in entries
	// across the device (the scarce on-device RAM DFTL works around).
	// Default: 1/32 of the logical pages.
	CMTEntries int
}

// dftlLowWater is the per-plane free-block GC trigger (2 is the minimum
// that guarantees GC liveness).
const dftlLowWater = 2

// DFTL implements Gupta/Kim/Urgaonkar's demand-based page-mapping FTL:
// the full page-level mapping lives in translation pages on flash; only a
// small Cached Mapping Table (CMT) is held in RAM, indexed through the
// in-RAM Global Translation Directory (GTD). Mapping misses and dirty
// evictions cost real flash I/O (MapReads/MapWrites) — the overhead that
// makes DFTL up to 3.7x slower than pure page mapping in the paper's
// earlier measurements.
//
// Correctness bookkeeping (the logical-to-physical array) is kept in host
// memory as ground truth; the CMT/GTD machinery exists to charge the I/O
// costs a real device would pay.
type DFTL struct {
	dev  *flash.Device
	st   Striping
	cfg  DFTLConfig
	dies []*dftlDie
}

// Block kinds used by DFTL.
const (
	kindData  uint8 = 0
	kindGC    uint8 = 1
	kindTrans uint8 = 10
)

type dftlDie struct {
	sp           DieSpace
	bt           *BlockTable
	cfg          DFTLConfig
	l2p          []nand.PPN // ground truth mapping
	gtd          []nand.PPN // dvpn -> translation page PPN
	cmt          *cmtCache
	host         []Frontier
	gc           []Frontier
	trans        []Frontier
	rr           int
	transRR      int
	seq          uint64
	gcActive     []bool
	entriesPerTP int
	stats        Stats
}

// NewDFTL builds a DFTL over dev.
func NewDFTL(dev *flash.Device, cfg DFTLConfig) (*DFTL, error) {
	if cfg.OverProvision <= 0 {
		cfg.OverProvision = 0.10
	}
	geo := dev.Geometry()
	f := &DFTL{dev: dev, cfg: cfg}
	perDie := int64(1<<62 - 1)
	for die := 0; die < geo.Dies(); die++ {
		d, err := newDFTLDie(dev, die, cfg)
		if err != nil {
			return nil, err
		}
		f.dies = append(f.dies, d)
		if n := d.logicalPages(); n < perDie {
			perDie = n
		}
	}
	cmtTotal := cfg.CMTEntries
	if cmtTotal <= 0 {
		cmtTotal = int(perDie) * geo.Dies() / 32
	}
	perDieCMT := cmtTotal / geo.Dies()
	if perDieCMT < 8 {
		perDieCMT = 8
	}
	for _, d := range f.dies {
		d.l2p = make([]nand.PPN, perDie)
		for i := range d.l2p {
			d.l2p[i] = nand.InvalidPPN
		}
		nTP := (int(perDie) + d.entriesPerTP - 1) / d.entriesPerTP
		d.gtd = make([]nand.PPN, nTP)
		for i := range d.gtd {
			d.gtd[i] = nand.InvalidPPN
		}
		d.cmt = newCMTCache(perDieCMT)
	}
	f.st = Striping{Dies: geo.Dies(), PerDie: perDie}
	return f, nil
}

func newDFTLDie(dev *flash.Device, die int, cfg DFTLConfig) (*dftlDie, error) {
	sp := NewDieSpace(dev, die)
	d := &dftlDie{
		sp:           sp,
		bt:           NewBlockTable(sp),
		cfg:          cfg,
		host:         make([]Frontier, sp.Planes()),
		gc:           make([]Frontier, sp.Planes()),
		trans:        make([]Frontier, sp.Planes()),
		gcActive:     make([]bool, sp.Planes()),
		entriesPerTP: sp.Geo().PageSize / 8,
	}
	for p := 0; p < sp.Planes(); p++ {
		d.host[p] = NewFrontier()
		d.gc[p] = NewFrontier()
		d.trans[p] = NewFrontier()
	}
	if d.logicalPages() <= 0 {
		return nil, fmt.Errorf("ftl: dftl die %d has no usable capacity", die)
	}
	return d, nil
}

func (d *dftlDie) logicalPages() int64 {
	ppb := int64(d.sp.PagesPerBlock())
	usable := int64(d.bt.Usable())
	// Translation pages consume capacity too: one entry per logical page,
	// entriesPerTP entries per page, plus frontier/GC reserve.
	reserve := int64(d.sp.Planes()) * int64(3+dftlLowWater)
	maxSafe := (usable - reserve) * ppb
	want := int64(float64(usable*ppb) * (1 - d.cfg.OverProvision))
	// Subtract the worst-case live translation-page footprint.
	want -= want / int64(d.entriesPerTP)
	if want > maxSafe {
		want = maxSafe
	}
	return want
}

// Name implements FTL.
func (f *DFTL) Name() string { return "dftl" }

// LogicalPages implements FTL.
func (f *DFTL) LogicalPages() int64 { return f.st.Total() }

// Stats implements FTL.
func (f *DFTL) Stats() Stats {
	var s Stats
	for _, d := range f.dies {
		s = s.Add(d.stats)
	}
	return s
}

// CMTHitRate returns the fraction of mapping lookups served from RAM.
func (f *DFTL) CMTHitRate() float64 {
	var hits, total int64
	for _, d := range f.dies {
		hits += d.cmt.hits
		total += d.cmt.hits + d.cmt.misses
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// Read implements FTL.
func (f *DFTL) Read(w sim.Waiter, lpn int64, buf []byte) error {
	if err := f.st.checkRange(lpn); err != nil {
		return err
	}
	return f.dies[f.st.DieOf(lpn)].read(w, f.st.DieLPN(lpn), buf)
}

// Write implements FTL.
func (f *DFTL) Write(w sim.Waiter, lpn int64, data []byte) error {
	if err := f.st.checkRange(lpn); err != nil {
		return err
	}
	return f.dies[f.st.DieOf(lpn)].write(w, f.st.DieLPN(lpn), lpn, data)
}

// Trim implements FTL. A legacy SATA-era DFTL never sees trims; the
// method exists for trace replays that model a trim-capable stack.
func (f *DFTL) Trim(w sim.Waiter, lpn int64) error {
	if err := f.st.checkRange(lpn); err != nil {
		return err
	}
	d := f.dies[f.st.DieOf(lpn)]
	dlpn := f.st.DieLPN(lpn)
	if err := d.loadEntry(w, dlpn); err != nil {
		return err
	}
	if ppn := d.l2p[dlpn]; ppn != nand.InvalidPPN {
		local, page := d.sp.LocalOfPPN(ppn)
		d.bt.Invalidate(local, page)
		d.l2p[dlpn] = nand.InvalidPPN
		d.cmt.markDirty(dlpn)
	}
	d.stats.Trims++
	return nil
}

func (d *dftlDie) read(w sim.Waiter, dlpn int64, buf []byte) error {
	if err := d.loadEntry(w, dlpn); err != nil {
		return err
	}
	ppn := d.l2p[dlpn]
	if ppn == nand.InvalidPPN {
		zero(buf)
		return nil
	}
	d.stats.HostReads++
	_, err := d.sp.Dev.ReadPage(w, ppn, buf)
	return err
}

func (d *dftlDie) write(w sim.Waiter, dlpn, globalLPN int64, data []byte) error {
	// Fetch the mapping first (DFTL needs the old PPN to invalidate).
	if err := d.loadEntry(w, dlpn); err != nil {
		return err
	}
	plane, err := d.pickPlane(w)
	if err != nil {
		return err
	}
	ppn, err := d.allocPage(plane, &d.host[plane], kindData)
	if err != nil {
		return err
	}
	d.seq++
	if old := d.l2p[dlpn]; old != nand.InvalidPPN {
		l, pg := d.sp.LocalOfPPN(old)
		d.bt.Invalidate(l, pg)
	}
	local, page := d.sp.LocalOfPPN(ppn)
	d.bt.SetOwner(local, page, dlpn)
	d.l2p[dlpn] = ppn
	d.cmt.markDirty(dlpn)
	d.stats.HostWrites++
	return d.sp.Dev.ProgramPage(w, ppn, data, nand.OOB{LPN: uint64(globalLPN), Seq: d.seq})
}

// loadEntry makes sure dlpn's mapping is present in the CMT, charging a
// translation-page read on a miss and a read-modify-write on dirty
// eviction (batched per translation page).
func (d *dftlDie) loadEntry(w sim.Waiter, dlpn int64) error {
	if d.cmt.touch(dlpn) {
		return nil
	}
	d.cmt.misses++
	dvpn := dlpn / int64(d.entriesPerTP)
	if tp := d.gtd[dvpn]; tp != nand.InvalidPPN {
		d.stats.MapReads++
		if _, err := d.sp.Dev.ReadPage(w, tp, nil); err != nil {
			return err
		}
	}
	for d.cmt.full() {
		if err := d.evictOne(w); err != nil {
			return err
		}
	}
	d.cmt.insert(dlpn, false)
	return nil
}

// evictOne removes the LRU CMT entry, writing back its translation page
// if dirty. All dirty entries of the same translation page are flushed
// together (the batching optimization from the DFTL paper).
func (d *dftlDie) evictOne(w sim.Waiter) error {
	victim, ok := d.cmt.lru()
	if !ok {
		return fmt.Errorf("ftl: dftl CMT underflow")
	}
	if victim.dirty {
		if err := d.writebackTP(w, victim.dlpn/int64(d.entriesPerTP)); err != nil {
			return err
		}
	}
	d.cmt.remove(victim.dlpn)
	return nil
}

// writebackTP writes a new version of translation page dvpn: read the old
// copy (read-modify-write), program the new one, update the GTD and clean
// the batched CMT entries.
func (d *dftlDie) writebackTP(w sim.Waiter, dvpn int64) error {
	if old := d.gtd[dvpn]; old != nand.InvalidPPN {
		d.stats.MapReads++
		if _, err := d.sp.Dev.ReadPage(w, old, nil); err != nil {
			return err
		}
	}
	plane := d.transRR
	d.transRR = (d.transRR + 1) % d.sp.Planes()
	ppn, err := d.allocTransTarget(plane)
	if err != nil {
		return err
	}
	d.seq++
	if old := d.gtd[dvpn]; old != nand.InvalidPPN {
		l, pg := d.sp.LocalOfPPN(old)
		d.bt.Invalidate(l, pg)
	}
	local, page := d.sp.LocalOfPPN(ppn)
	d.bt.SetOwner(local, page, dvpn)
	d.gtd[dvpn] = ppn
	d.cmt.cleanPage(dvpn, int64(d.entriesPerTP))
	d.stats.MapWrites++
	return d.sp.Dev.ProgramPage(w, ppn, nil, nand.OOB{
		LPN: uint64(dvpn), Seq: d.seq, Flags: 1, // Flags bit 0: translation page
	})
}

// allocTransTarget allocates a translation-page slot without triggering
// GC (translation writes can happen inside GC itself); it falls back
// across planes before failing.
func (d *dftlDie) allocTransTarget(plane int) (nand.PPN, error) {
	for i := 0; i < d.sp.Planes(); i++ {
		q := (plane + i) % d.sp.Planes()
		if !d.trans[q].Full(d.sp.PagesPerBlock()) || d.bt.FreeCount(q) > 0 {
			if ppn, err := d.allocPage(q, &d.trans[q], kindTrans); err == nil {
				return ppn, nil
			}
		}
	}
	return 0, fmt.Errorf("%w: dftl die %d cannot place a translation page", ErrGCStuck, d.sp.Die)
}

func (d *dftlDie) pickPlane(w sim.Waiter) (int, error) {
	planes := d.sp.Planes()
	var firstErr error
	for i := 0; i < planes; i++ {
		plane := (d.rr + i) % planes
		err := d.ensureSpace(w, plane)
		if err == nil {
			d.rr = (plane + 1) % planes
			return plane, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return 0, firstErr
}

func (d *dftlDie) allocPage(plane int, fr *Frontier, kind uint8) (nand.PPN, error) {
	ppb := d.sp.PagesPerBlock()
	if fr.Full(ppb) {
		if fr.Block >= 0 {
			d.bt.MarkFull(fr.Block)
		}
		b, ok := d.bt.AllocFree(plane, kind)
		if !ok {
			return 0, fmt.Errorf("%w: dftl plane %d of die %d has no free blocks", ErrGCStuck, plane, d.sp.Die)
		}
		fr.Block, fr.Next = b, 0
	}
	ppn := d.sp.PPN(fr.Block, fr.Next)
	fr.Next++
	return ppn, nil
}

func (d *dftlDie) ensureSpace(w sim.Waiter, plane int) error {
	const maxSpins = 1 << 16
	for spins := 0; d.bt.FreeCount(plane) < dftlLowWater; spins++ {
		if spins > maxSpins {
			return fmt.Errorf("%w: dftl plane %d of die %d", ErrGCStuck, plane, d.sp.Die)
		}
		if d.gcActive[plane] {
			if d.bt.FreeCount(plane) > 0 {
				return nil
			}
			w.WaitUntil(w.Now() + retryWait) //noftl:ignore pollloop spin budget: ErrGCStuck after maxSpins
			continue
		}
		if err := d.gcOnce(w, plane); err != nil {
			return err
		}
	}
	return nil
}

func (d *dftlDie) gcOnce(w sim.Waiter, plane int) error {
	victim, ok := d.bt.PickVictim(plane, AnyKind, GreedyPolicy)
	if !ok {
		return fmt.Errorf("%w: dftl no victim in plane %d of die %d", ErrGCStuck, plane, d.sp.Die)
	}
	if d.bt.Info[victim].Valid >= d.sp.PagesPerBlock() {
		return fmt.Errorf("%w: dftl plane %d of die %d fully valid", ErrGCStuck, plane, d.sp.Die)
	}
	d.gcActive[plane] = true
	defer func() { d.gcActive[plane] = false }()

	info := &d.bt.Info[victim]
	isTrans := info.Kind == kindTrans
	info.State = BlockFrontier
	ppb := d.sp.PagesPerBlock()
	for page := 0; page < ppb; page++ {
		key := info.Owners[page]
		if key == NoOwner {
			continue
		}
		var err error
		if isTrans {
			err = d.relocateTrans(w, victim, page, key, plane)
		} else {
			err = d.relocateData(w, victim, page, key, plane)
		}
		if err != nil {
			info.State = BlockUsed
			return err
		}
	}
	d.stats.Erases++
	if err := d.sp.Dev.EraseBlock(w, d.sp.PBN(victim)); err != nil {
		d.stats.Erases--
		d.bt.Retire(victim)
		return nil
	}
	d.bt.Release(victim)
	return nil
}

// relocateData moves a valid data page and lazily patches its mapping
// through the CMT (charging translation I/O on misses — the cost that
// makes DFTL's GC expensive).
func (d *dftlDie) relocateData(w sim.Waiter, victim, page int, dlpn int64, plane int) error {
	src := d.sp.PPN(victim, page)
	dst, dstPlane, err := d.allocGCTarget(plane)
	if err != nil {
		return err
	}
	d.seq++
	oob := nand.OOB{LPN: uint64(d.globalLPN(dlpn)), Seq: d.seq}
	d.bt.Invalidate(victim, page)
	dl, dp := d.sp.LocalOfPPN(dst)
	d.bt.SetOwner(dl, dp, dlpn)
	d.l2p[dlpn] = dst
	if dstPlane == plane {
		d.stats.GCCopybacks++
		if err := d.sp.Dev.Copyback(w, src, dst, oob); err != nil {
			return err
		}
	} else {
		d.stats.GCReads++
		d.stats.GCWrites++
		buf := make([]byte, d.sp.Geo().PageSize)
		if _, err := d.sp.Dev.ReadPage(w, src, buf); err != nil {
			return err
		}
		if err := d.sp.Dev.ProgramPage(w, dst, buf, oob); err != nil {
			return err
		}
	}
	// Patch the mapping: pull the entry into the CMT and dirty it.
	if err := d.loadEntry(w, dlpn); err != nil {
		return err
	}
	d.cmt.markDirty(dlpn)
	return nil
}

// relocateTrans moves a valid translation page to the translation
// frontier (blocks stay homogeneous per kind); only the GTD needs
// patching (it lives in RAM).
func (d *dftlDie) relocateTrans(w sim.Waiter, victim, page int, dvpn int64, plane int) error {
	src := d.sp.PPN(victim, page)
	dst, err := d.allocTransTarget(plane)
	if err != nil {
		return err
	}
	d.seq++
	oob := nand.OOB{LPN: uint64(dvpn), Seq: d.seq, Flags: 1}
	d.bt.Invalidate(victim, page)
	dl, dp := d.sp.LocalOfPPN(dst)
	d.bt.SetOwner(dl, dp, dvpn)
	d.gtd[dvpn] = dst
	if d.sp.PlaneOf(dl) == plane {
		d.stats.GCCopybacks++
		return d.sp.Dev.Copyback(w, src, dst, oob)
	}
	d.stats.GCReads++
	d.stats.GCWrites++
	if _, err := d.sp.Dev.ReadPage(w, src, nil); err != nil {
		return err
	}
	return d.sp.Dev.ProgramPage(w, dst, nil, oob)
}

// allocGCTarget mirrors the page-mapping die manager's allocRelocTarget
// (package noftl): same plane first, then borrow from siblings.
func (d *dftlDie) allocGCTarget(srcPlane int) (nand.PPN, int, error) {
	if ppn, err := d.allocPage(srcPlane, &d.gc[srcPlane], kindGC); err == nil {
		return ppn, srcPlane, nil
	}
	if !d.host[srcPlane].Full(d.sp.PagesPerBlock()) {
		if ppn, err := d.allocPage(srcPlane, &d.host[srcPlane], kindData); err == nil {
			return ppn, srcPlane, nil
		}
	}
	for i := 1; i < d.sp.Planes(); i++ {
		q := (srcPlane + i) % d.sp.Planes()
		if !d.gc[q].Full(d.sp.PagesPerBlock()) || d.bt.FreeCount(q) > dftlLowWater {
			if ppn, err := d.allocPage(q, &d.gc[q], kindGC); err == nil {
				return ppn, q, nil
			}
		}
		if !d.host[q].Full(d.sp.PagesPerBlock()) {
			if ppn, err := d.allocPage(q, &d.host[q], kindData); err == nil {
				return ppn, q, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("%w: dftl die %d has no relocation room", ErrGCStuck, d.sp.Die)
}

func (d *dftlDie) globalLPN(dlpn int64) int64 {
	return dlpn*int64(d.sp.Geo().Dies()) + int64(d.sp.Die)
}

// cmtCache is a fixed-capacity LRU of mapping entries.
type cmtCache struct {
	cap          int
	m            map[int64]*cmtNode
	head, tail   *cmtNode // head = MRU sentinel chain
	hits, misses int64
}

type cmtNode struct {
	dlpn       int64
	dirty      bool
	prev, next *cmtNode
}

func newCMTCache(capacity int) *cmtCache {
	c := &cmtCache{cap: capacity, m: make(map[int64]*cmtNode, capacity)}
	c.head = &cmtNode{}
	c.tail = &cmtNode{}
	c.head.next = c.tail
	c.tail.prev = c.head
	return c
}

func (c *cmtCache) full() bool { return len(c.m) >= c.cap }

// touch marks dlpn most-recently-used; reports whether it was cached.
func (c *cmtCache) touch(dlpn int64) bool {
	n, ok := c.m[dlpn]
	if !ok {
		return false
	}
	c.hits++
	c.unlink(n)
	c.pushFront(n)
	return true
}

func (c *cmtCache) insert(dlpn int64, dirty bool) {
	if n, ok := c.m[dlpn]; ok {
		n.dirty = n.dirty || dirty
		c.unlink(n)
		c.pushFront(n)
		return
	}
	n := &cmtNode{dlpn: dlpn, dirty: dirty}
	c.m[dlpn] = n
	c.pushFront(n)
}

// markDirty dirties dlpn's entry, inserting it if eviction raced it out.
func (c *cmtCache) markDirty(dlpn int64) { c.insert(dlpn, true) }

// lru returns the least-recently-used entry.
func (c *cmtCache) lru() (*cmtNode, bool) {
	if c.tail.prev == c.head {
		return nil, false
	}
	return c.tail.prev, true
}

func (c *cmtCache) remove(dlpn int64) {
	if n, ok := c.m[dlpn]; ok {
		c.unlink(n)
		delete(c.m, dlpn)
	}
}

// cleanPage clears the dirty bit of every cached entry belonging to the
// translation page that covers entries [dvpn*perTP, (dvpn+1)*perTP).
func (c *cmtCache) cleanPage(dvpn, perTP int64) {
	lo, hi := dvpn*perTP, (dvpn+1)*perTP
	for n := c.head.next; n != c.tail; n = n.next {
		if n.dlpn >= lo && n.dlpn < hi {
			n.dirty = false
		}
	}
}

func (c *cmtCache) unlink(n *cmtNode) {
	n.prev.next = n.next
	n.next.prev = n.prev
}

func (c *cmtCache) pushFront(n *cmtNode) {
	n.next = c.head.next
	n.prev = c.head
	c.head.next.prev = n
	c.head.next = n
}
