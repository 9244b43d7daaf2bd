// Package noftl implements the paper's contribution: DBMS-integrated
// native flash management. A noftl.Volume gives the storage engine a
// logical page space directly over native flash — no file system, no
// block-device layer, no on-device FTL. The flash maintenance that an
// FTL would hide inside the device runs here, in the host, where it can
// use DBMS knowledge:
//
//   - Address translation is a complete page-level table in host RAM
//     (host memory is plentiful; device RAM is not — §3.1).
//   - Invalidate lets the DBMS free-space manager declare pages dead, so
//     garbage collection never copies stale database pages.
//   - Regions group dies; the buffer manager's db-writers can be
//     associated die-wise to remove chip contention (§3.2).
//   - GCStep exposes incremental garbage collection for DBMS-scheduled
//     background cleaning (sched.StartMaintenance), keeping it off the
//     critical write path. Without it the volume collects inline, at
//     the low-water mark on the allocating path.
//   - Wear leveling and bad-block management run host-side with the same
//     machinery (§3, Figure 2).
package noftl

import (
	"errors"
	"fmt"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// Hint steers physical placement of a write.
type Hint uint8

// Placement hints. Hot pages (indexes, frequently updated heap pages)
// and cold pages (bulk loads, history tables) go to separate write
// frontiers, which lowers GC copy cost because blocks die more uniformly.
// HintLog marks sequential log-style appends (WAL pages when the log is
// hosted on a page-mapped volume): they get their own frontier so the
// short-lived log stream never mixes into data blocks.
const (
	HintDefault Hint = iota
	HintHot
	HintCold
	HintLog
)

// Config tunes a Volume.
type Config struct {
	// OverProvision is the capacity share reserved for GC headroom.
	// NoFTL needs less than an FTL because the DBMS invalidates dead
	// pages. Default 0.07.
	OverProvision float64
	// Policy selects GC victims. Default ftl.GreedyPolicy.
	Policy ftl.GCPolicy
	// DisableWearLevel turns static wear leveling off (it is on by
	// default).
	DisableWearLevel bool
	// WearDelta is the erase-count spread triggering a wear move.
	// Default 64.
	WearDelta int
	// DisableHints ignores every placement hint: all writes share the
	// hot frontier — the true "single policy for every page" volume the
	// configurable-regions ablation uses as its baseline.
	DisableHints bool
	// Dies restricts the volume to a subset of the device's dies — the
	// region-scoped form used by the region manager (package region),
	// where several independently-managed volumes share one die array.
	// Empty means every die.
	Dies []int
	// Dev routes every command through a command scheduler's device
	// (sched.Scheduler.Dev), which dispatches it at the class its
	// request declares, else at its op type's class. Nil: the raw
	// device.
	Dev flash.Dev
	// BackgroundGC takes garbage collection off the write path: the
	// write path reclaims space inline only when a plane is completely
	// out of free blocks (the emergency floor); routine cleaning is left
	// to background workers driving GCStep (sched.StartMaintenance).
	// Without background workers the volume still functions — every
	// collection just becomes an emergency one.
	BackgroundGC bool
}

func (c Config) withDefaults() Config {
	if c.OverProvision <= 0 {
		c.OverProvision = 0.07
	}
	if c.WearDelta == 0 {
		c.WearDelta = 64
	}
	return c
}

// lowWater is the per-plane free-block count below which the write path
// runs GC inline; background GCStep starts earlier, at lowWater+2. A
// plane needs at least one free block for GC to make progress.
const lowWater = 2

// Volume is a native-flash logical volume managed by the DBMS.
type Volume struct {
	dev  *flash.Device
	st   ftl.Striping
	cfg  Config
	dies []*dieMgr
}

// Frontier kinds.
const (
	kindHot uint8 = iota
	kindCold
	kindGC
	kindDelta
	kindLog
)

type dieMgr struct {
	sp            ftl.DieSpace
	bt            *ftl.BlockTable
	cfg           Config
	io            flash.Dev // every command (Config.Dev, else the raw device)
	idx           int       // position within the volume's stripe
	stripe        int       // number of dies in the volume
	l2p           []nand.PPN
	hot           []ftl.Frontier // per plane
	cold          []ftl.Frontier
	gc            []ftl.Frontier
	deltaFr       []ftl.Frontier
	logFr         []ftl.Frontier
	open          []openDeltaPage // per plane: delta page accepting appends
	chains        map[int64][]chainRef
	deltaPages    map[nand.PPN]*deltaPageInfo
	nop           int // device partial-program budget per page
	storeData     bool
	frontiers     int // per-plane frontiers the configuration can open
	rr            int
	seq           uint64
	gcActive      []bool
	erasesSinceWL int
	stats         ftl.Stats
	// moved, when set, is told the global LPN of every page relocate has
	// moved (see newVolume).
	moved func(sim.Waiter, int64) error
	// gcIdle holds the die's idle GC worker and the writes waiting out a
	// plane's collection: woken when a block leaves a free pool (NeedsGC
	// can have turned true) and when a plane's collection ends.
	gcIdle sim.WaitQueue
}

// New builds a Volume over a native flash device (or, with cfg.Dies set,
// over a region of it).
func New(dev *flash.Device, cfg Config) (*Volume, error) {
	// Hot, cold, GC, delta and log: every frontier a hint or a delta
	// append can open.
	return newVolume(dev, cfg, 5, nil)
}

// newVolume builds a Volume whose capacity reserve covers the given
// number of per-plane write frontiers — how many its caller's use of the
// volume can ever open (see logicalPages). moved, when non-nil, is called
// with the global LPN of each page garbage collection has relocated: the
// one thing a mapping cache layered on the volume (NewDFTL) cannot see
// from outside. It runs inside the collection, so it may read through
// the volume but must not write to it.
func newVolume(dev *flash.Device, cfg Config, frontiers int, moved func(sim.Waiter, int64) error) (*Volume, error) {
	cfg = cfg.withDefaults()
	geo := dev.Geometry()
	dies := cfg.Dies
	if len(dies) == 0 {
		for die := 0; die < geo.Dies(); die++ {
			dies = append(dies, die)
		}
	}
	seen := map[int]bool{}
	for _, die := range dies {
		if die < 0 || die >= geo.Dies() {
			return nil, fmt.Errorf("noftl: die %d out of range (%d dies)", die, geo.Dies())
		}
		if seen[die] {
			return nil, fmt.Errorf("noftl: die %d listed twice", die)
		}
		seen[die] = true
	}
	v := &Volume{dev: dev, cfg: cfg}
	perDie := int64(1<<62 - 1)
	for idx, die := range dies {
		d, err := newDieMgr(dev, die, idx, len(dies), cfg, frontiers)
		if err != nil {
			return nil, err
		}
		d.moved = moved
		v.dies = append(v.dies, d)
		if n := d.logicalPages(); n < perDie {
			perDie = n
		}
	}
	for _, d := range v.dies {
		d.l2p = make([]nand.PPN, perDie)
		for i := range d.l2p {
			d.l2p[i] = nand.InvalidPPN
		}
	}
	v.st = ftl.Striping{Dies: len(dies), PerDie: perDie}
	return v, nil
}

func newDieMgr(dev *flash.Device, die, idx, stripe int, cfg Config, frontiers int) (*dieMgr, error) {
	sp := ftl.NewDieSpace(dev, die)
	var io flash.Dev = dev
	if cfg.Dev != nil {
		io = cfg.Dev
	}
	d := &dieMgr{
		sp:         sp,
		bt:         ftl.NewBlockTable(sp),
		cfg:        cfg,
		io:         io,
		idx:        idx,
		stripe:     stripe,
		hot:        make([]ftl.Frontier, sp.Planes()),
		cold:       make([]ftl.Frontier, sp.Planes()),
		gc:         make([]ftl.Frontier, sp.Planes()),
		deltaFr:    make([]ftl.Frontier, sp.Planes()),
		logFr:      make([]ftl.Frontier, sp.Planes()),
		open:       make([]openDeltaPage, sp.Planes()),
		chains:     map[int64][]chainRef{},
		deltaPages: map[nand.PPN]*deltaPageInfo{},
		nop:        dev.Array().MaxPartialPrograms(),
		storeData:  dev.Array().StoresData(),
		frontiers:  frontiers,
		gcActive:   make([]bool, sp.Planes()),
	}
	for p := 0; p < sp.Planes(); p++ {
		d.hot[p] = ftl.NewFrontier()
		d.cold[p] = ftl.NewFrontier()
		d.gc[p] = ftl.NewFrontier()
		d.deltaFr[p] = ftl.NewFrontier()
		d.logFr[p] = ftl.NewFrontier()
	}
	if d.logicalPages() <= 0 {
		return nil, fmt.Errorf("noftl: die %d has no usable capacity", die)
	}
	return d, nil
}

// logicalPages computes the die's exported capacity: usable pages minus
// over-provisioning, capped so GC always has headroom.
func (d *dieMgr) logicalPages() int64 {
	ppb := int64(d.sp.PagesPerBlock())
	usable := int64(d.bt.Usable())
	// Reserve room for the open per-plane frontiers plus the low-water
	// free pool.
	reserve := int64(d.sp.Planes()) * int64(d.frontiers+lowWater)
	maxSafe := (usable - reserve) * ppb
	want := int64(float64(usable*ppb) * (1 - d.cfg.OverProvision))
	if want > maxSafe {
		want = maxSafe
	}
	return want
}

// LogicalPages is the volume's capacity in pages.
func (v *Volume) LogicalPages() int64 { return v.st.Total() }

// Regions returns the number of physical regions (dies) the volume
// manages; region i is the volume's i-th die in Config.Dies order.
func (v *Volume) Regions() int { return v.st.Dies }

// LivePages counts the logical pages currently holding data (a full
// image, a delta chain, or both). Region occupancy reporting uses it.
func (v *Volume) LivePages() int64 {
	var n int64
	for _, d := range v.dies {
		for dlpn, ppn := range d.l2p {
			if ppn != nand.InvalidPPN || len(d.chains[int64(dlpn)]) > 0 {
				n++
			}
		}
	}
	return n
}

// FreeBlocks counts erased, allocatable blocks across all regions — the
// volume-wide headroom the garbage collector defends. Telemetry samples
// it as a gauge.
func (v *Volume) FreeBlocks() int64 {
	var n int64
	for _, d := range v.dies {
		for plane := 0; plane < d.sp.Planes(); plane++ {
			n += int64(d.bt.FreeCount(plane))
		}
	}
	return n
}

// RegionOf maps a logical page to its physical region. Because the
// volume stripes die-wise, the DBMS can partition dirty pages by region
// and bind one db-writer per region (§3.2).
func (v *Volume) RegionOf(lpn int64) int { return v.st.DieOf(lpn) }

// Identify forwards the native IDENTIFY command.
func (v *Volume) Identify() flash.Identity { return v.dev.Identify() }

// Stats aggregates flash-maintenance counters across regions.
func (v *Volume) Stats() ftl.Stats {
	var s ftl.Stats
	for _, d := range v.dies {
		s = s.Add(d.stats)
	}
	return s
}

// Read reads a logical page. Unwritten or invalidated pages read as
// zeros without touching flash. The request descriptor's declared class
// (if any) overrides the volume's foreground-read routing at an attached
// scheduler — for every flash read the call causes, a delta-chain fold
// included: a read declaring ioreq.ClassPrefetch queues below foreground
// reads, WAL appends and data programs.
func (v *Volume) Read(rq ioreq.Req, lpn int64, buf []byte) error {
	if err := v.check(lpn); err != nil {
		return err
	}
	return v.dies[v.st.DieOf(lpn)].read(rq.Waiter(), v.st.DieLPN(lpn), buf)
}

// Write writes a logical page out-of-place with default placement.
func (v *Volume) Write(rq ioreq.Req, lpn int64, data []byte) error {
	return v.WriteHint(rq, lpn, data, HintDefault)
}

// WriteHint writes a logical page with a placement hint. The request
// descriptor's declared class (if any) overrides the hint-derived
// command routing at an attached scheduler.
func (v *Volume) WriteHint(rq ioreq.Req, lpn int64, data []byte, h Hint) error {
	if err := v.check(lpn); err != nil {
		return err
	}
	return v.dies[v.st.DieOf(lpn)].write(rq.Waiter(), v.st.DieLPN(lpn), lpn, data, h)
}

// Invalidate declares a logical page dead. This is the free-space-manager
// integration: a dropped table, a freed B-tree node or a truncated heap
// page stops being GC copy work immediately. It costs no flash I/O.
func (v *Volume) Invalidate(lpn int64) error {
	if err := v.check(lpn); err != nil {
		return err
	}
	v.dies[v.st.DieOf(lpn)].invalidate(v.st.DieLPN(lpn))
	return nil
}

// NeedsGC reports whether a region is below the background cleaning
// watermark; the maintenance workers (sched.StartMaintenance) use it to
// run GCStep off the commit path.
func (v *Volume) NeedsGC(region int) bool {
	d := v.dies[region]
	for plane := 0; plane < d.sp.Planes(); plane++ {
		if d.bt.FreeCount(plane) < lowWater+2 {
			return true
		}
	}
	return false
}

// GCWaiters is where the region's idle background GC worker parks
// (sched.StartMaintenance), beside writes waiting out a collection: the
// volume wakes it whenever NeedsGC can turn true or a collection ends.
func (v *Volume) GCWaiters(region int) *sim.WaitQueue { return &v.dies[region].gcIdle }

// GCStep performs at most one victim collection in the region, returning
// whether it did work. Background callers drive it while NeedsGC.
func (v *Volume) GCStep(rq ioreq.Req, region int) (bool, error) {
	w := rq.Waiter()
	d := v.dies[region]
	for plane := 0; plane < d.sp.Planes(); plane++ {
		if d.bt.FreeCount(plane) < lowWater+2 && !d.gcActive[plane] {
			if err := d.gcOnce(w, plane); err != nil {
				if errors.Is(err, ftl.ErrGCStuck) {
					continue // nothing collectable in this plane now
				}
				return false, err
			}
			return true, nil
		}
	}
	return false, nil
}

func (v *Volume) check(lpn int64) error {
	if lpn < 0 || lpn >= v.st.Total() {
		return fmt.Errorf("%w: lpn %d of %d", ftl.ErrOutOfRange, lpn, v.st.Total())
	}
	return nil
}

func (d *dieMgr) read(w sim.Waiter, dlpn int64, buf []byte) error {
	ppn := d.l2p[dlpn]
	chain := d.chains[dlpn]
	if ppn == nand.InvalidPPN && len(chain) == 0 {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	if len(chain) > 0 {
		// Fold-on-read: apply the delta chain onto the base image. The
		// chain stays in place; only GC and the maxDeltaChain threshold
		// rewrite the page.
		if buf == nil {
			buf = make([]byte, d.sp.Geo().PageSize)
		}
		return d.readFolded(w, dlpn, ppn, chain, buf, false)
	}
	d.stats.HostReads++
	_, err := d.io.ReadPage(w, ppn, buf)
	return err
}

func (d *dieMgr) invalidate(dlpn int64) {
	if ppn := d.l2p[dlpn]; ppn != nand.InvalidPPN {
		local, page := d.sp.LocalOfPPN(ppn)
		d.bt.Invalidate(local, page)
		d.l2p[dlpn] = nand.InvalidPPN
	}
	d.dropRefs(dlpn, len(d.chains[dlpn]))
	d.stats.Trims++
}

func (d *dieMgr) frontierFor(h Hint, plane int) *ftl.Frontier {
	if d.cfg.DisableHints {
		return &d.hot[plane]
	}
	switch h {
	case HintCold:
		return &d.cold[plane]
	case HintLog:
		return &d.logFr[plane]
	}
	return &d.hot[plane]
}

func (d *dieMgr) kindFor(h Hint) uint8 {
	if d.cfg.DisableHints {
		return kindHot
	}
	switch h {
	case HintCold:
		return kindCold
	case HintLog:
		return kindLog
	}
	return kindHot
}

func (d *dieMgr) write(w sim.Waiter, dlpn, globalLPN int64, data []byte, h Hint) error {
	for attempt := 0; ; attempt++ {
		if attempt > d.sp.Blocks() {
			return fmt.Errorf("%w: die %d cannot place a write", ftl.ErrGCStuck, d.sp.Die)
		}
		plane, err := d.pickWritePlane(w)
		if err != nil {
			return err
		}
		ppn, err := d.allocPage(plane, d.frontierFor(h, plane), d.kindFor(h))
		if err != nil {
			continue
		}
		d.seq++
		oob := nand.OOB{LPN: uint64(globalLPN), Seq: d.seq}
		if old := d.l2p[dlpn]; old != nand.InvalidPPN {
			l, pg := d.sp.LocalOfPPN(old)
			d.bt.Invalidate(l, pg)
		}
		// A full image supersedes any outstanding deltas.
		d.dropRefs(dlpn, len(d.chains[dlpn]))
		local, page := d.sp.LocalOfPPN(ppn)
		d.bt.SetOwner(local, page, dlpn)
		d.l2p[dlpn] = ppn
		d.stats.HostWrites++

		perr := d.io.ProgramPage(w, ppn, data, oob)
		if perr == nil {
			return nil
		}
		if !errors.Is(perr, nand.ErrBadBlock) {
			return perr
		}
		// Bad-block manager: retire, salvage, retry.
		d.stats.HostWrites--
		d.bt.Invalidate(local, page)
		d.l2p[dlpn] = nand.InvalidPPN
		if err := d.retireAndSalvage(w, local); err != nil {
			return err
		}
	}
}

// pickWritePlane chooses the next plane for a host write, running GC as
// needed. It prefers round-robin striping but skips planes whose space
// cannot be reclaimed (e.g. depleted by grown bad blocks).
func (d *dieMgr) pickWritePlane(w sim.Waiter) (int, error) {
	planes := d.sp.Planes()
	var firstErr error
	for i := 0; i < planes; i++ {
		plane := (d.rr + i) % planes
		err := d.ensureSpace(w, plane)
		if err == nil {
			d.rr = (plane + 1) % planes
			return plane, nil
		}
		if !errors.Is(err, ftl.ErrGCStuck) {
			return 0, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	// Every plane is at or below reserve; allow draining remaining
	// frontier room before giving up.
	for i := 0; i < planes; i++ {
		plane := (d.rr + i) % planes
		if !d.hot[plane].Full(d.sp.PagesPerBlock()) || d.bt.FreeCount(plane) > 0 {
			d.rr = (plane + 1) % planes
			return plane, nil
		}
	}
	return 0, firstErr
}

// allocPage takes the next page of the given frontier, refilling it from
// the plane's free pool when full. A full frontier lets go of its block
// before the refill: if the pool is empty it stays unset, where naming
// the old block would mark it full again on the next call — after GC may
// have taken it as a victim, or recycled it into another frontier.
func (d *dieMgr) allocPage(plane int, fr *ftl.Frontier, kind uint8) (nand.PPN, error) {
	ppb := d.sp.PagesPerBlock()
	if fr.Full(ppb) {
		if fr.Block >= 0 {
			d.bt.MarkFull(fr.Block)
			*fr = ftl.NewFrontier()
		}
		b, ok := d.bt.AllocFree(plane, kind)
		if !ok {
			return 0, fmt.Errorf("%w: plane %d of die %d has no free blocks",
				ftl.ErrGCStuck, plane, d.sp.Die)
		}
		d.gcIdle.Wake()
		fr.Block, fr.Next = b, 0
	}
	ppn := d.sp.PPN(fr.Block, fr.Next)
	fr.Next++
	return ppn, nil
}

// inlineWater is the free-block count below which the write path runs
// GC itself. With BackgroundGC the routine watermark belongs to the
// background workers and the write path keeps only the emergency floor:
// one free block per plane, the minimum GC needs to make progress.
func (d *dieMgr) inlineWater() int {
	if d.cfg.BackgroundGC {
		return 1
	}
	return lowWater
}

// ensureSpace runs GC until the plane has inlineWater free blocks. When
// another operation is collecting this plane, it parks until that ends
// (a processless caller meets that only after a kernel stopped mid-GC).
func (d *dieMgr) ensureSpace(w sim.Waiter, plane int) error {
	for d.bt.FreeCount(plane) < d.inlineWater() {
		if d.gcActive[plane] {
			if d.bt.FreeCount(plane) > 0 {
				return nil // enough to proceed; the active GC will refill
			}
			if w.Proc() == nil {
				return fmt.Errorf("%w: plane %d of die %d is being collected", ftl.ErrGCStuck, plane, d.sp.Die)
			}
			d.gcIdle.Wait(w, 0)
			continue
		}
		if err := d.gcOnce(w, plane); err != nil {
			return err
		}
	}
	return nil
}

// gcOnce collects one victim block in the plane.
func (d *dieMgr) gcOnce(w sim.Waiter, plane int) error {
	// Maintenance traffic always dispatches in the GC class, but keeps
	// the tag of the request that triggered it (inline collections).
	w = ioreq.WithClass(w, ioreq.ClassGC)
	victim, ok := d.bt.PickVictim(plane, ftl.AnyKind, d.cfg.Policy)
	if !ok {
		return fmt.Errorf("%w: no victim in plane %d of die %d", ftl.ErrGCStuck, plane, d.sp.Die)
	}
	if d.bt.Info[victim].Valid >= d.sp.PagesPerBlock() {
		// A non-greedy policy chose a fully valid block, which frees
		// nothing; fall back to greedy to guarantee progress.
		victim, ok = d.bt.PickVictim(plane, ftl.AnyKind, ftl.GreedyPolicy)
		if !ok || d.bt.Info[victim].Valid >= d.sp.PagesPerBlock() {
			return fmt.Errorf("%w: plane %d of die %d fully valid", ftl.ErrGCStuck, plane, d.sp.Die)
		}
	}
	d.gcActive[plane] = true
	defer func() {
		d.gcActive[plane] = false
		d.gcIdle.Wake()
	}()

	if err := d.collectBlock(w, victim, plane); err != nil {
		return err
	}
	d.maybeWearLevel(w, plane)
	return nil
}

// collectBlock evacuates and erases one block. The victim is taken out of
// circulation while being collected and restored to Used on failure.
func (d *dieMgr) collectBlock(w sim.Waiter, victim, plane int) error {
	d.bt.Info[victim].State = ftl.BlockFrontier
	ppb := d.sp.PagesPerBlock()
	for page := 0; page < ppb; page++ {
		dlpn := d.bt.Info[victim].Owners[page]
		if dlpn == ftl.NoOwner {
			continue // dead page: the DBMS already told us; no copy
		}
		var err error
		switch {
		case dlpn == deltaOwner:
			// Packed delta records: fold every resident chain so the
			// block's stale versions collapse into fresh full pages.
			err = d.foldResidents(w, victim, page)
		case len(d.chains[dlpn]) > 0:
			// Base page with a chain: relocate the folded image instead
			// of the stale base (the chain's records die with it).
			err = d.foldChain(w, dlpn, nil, true)
			if err == nil && d.bt.Info[victim].Owners[page] == dlpn {
				// The chain emptied under the fold (e.g. an append was
				// rolled back) leaving a plain valid base: move it.
				err = d.relocate(w, victim, page, dlpn, plane)
			}
		default:
			err = d.relocate(w, victim, page, dlpn, plane)
		}
		if err != nil {
			d.bt.Info[victim].State = ftl.BlockUsed
			return err
		}
	}
	return d.eraseAndRelease(w, victim)
}

// allocRelocTarget finds a destination page for a relocation, preferring
// the source plane (COPYBACK-eligible): GC frontier, then a free block,
// then host-frontier room. If the plane is depleted it borrows room from
// another plane in the die — without eating into that plane's GC
// reserve — at the cost of a bus-based move.
func (d *dieMgr) allocRelocTarget(srcPlane int) (nand.PPN, int, error) {
	if ppn, err := d.allocPage(srcPlane, &d.gc[srcPlane], kindGC); err == nil {
		return ppn, srcPlane, nil
	}
	if !d.hot[srcPlane].Full(d.sp.PagesPerBlock()) {
		if ppn, err := d.allocPage(srcPlane, &d.hot[srcPlane], kindHot); err == nil {
			return ppn, srcPlane, nil
		}
	}
	for i := 1; i < d.sp.Planes(); i++ {
		q := (srcPlane + i) % d.sp.Planes()
		if !d.gc[q].Full(d.sp.PagesPerBlock()) || d.bt.FreeCount(q) > lowWater {
			if ppn, err := d.allocPage(q, &d.gc[q], kindGC); err == nil {
				return ppn, q, nil
			}
		}
		if !d.hot[q].Full(d.sp.PagesPerBlock()) {
			if ppn, err := d.allocPage(q, &d.hot[q], kindHot); err == nil {
				return ppn, q, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("%w: die %d has no relocation room", ftl.ErrGCStuck, d.sp.Die)
}

// roomInPlane reports whether allocRelocTarget would stay in the plane:
// its GC frontier has room, or it has a free block, or its host frontier
// has room.
func (d *dieMgr) roomInPlane(plane int) bool {
	ppb := d.sp.PagesPerBlock()
	return !d.gc[plane].Full(ppb) || d.bt.FreeCount(plane) > 0 || !d.hot[plane].Full(ppb)
}

// relocate moves one valid page: COPYBACK within the plane, read+program
// across planes, retrying over grown bad blocks. The mapping move commits
// at submission and rolls back if the copy fails.
//
// Nothing waits between taking a frontier page and submitting its
// program: a frontier is shared — a borrowed plane's by that plane's own
// collector and the host — and whoever takes the next page may submit
// first, which NAND forbids (pages program in order within a block), while
// a reader already sent to the committed target would find it erased. So
// a move that has to leave the plane reads its source before it
// allocates.
func (d *dieMgr) relocate(w sim.Waiter, srcLocal, srcPage int, dlpn int64, plane int) error {
	src := d.sp.PPN(srcLocal, srcPage)
	var buf []byte // the source image, once a cross-plane move has read it
	for {
		if buf == nil && !d.roomInPlane(plane) {
			d.stats.GCReads++
			buf = make([]byte, d.sp.Geo().PageSize)
			if _, err := d.io.ReadPage(w, src, buf); err != nil && !errors.Is(err, nand.ErrPageErased) {
				return err
			}
			if d.bt.Info[srcLocal].Owners[srcPage] != dlpn {
				return nil // rewritten or invalidated during the read: nothing left to move
			}
		}
		dst, dstPlane, err := d.allocRelocTarget(plane)
		if err != nil {
			return err
		}
		d.seq++
		oob := nand.OOB{LPN: uint64(d.globalLPN(dlpn)), Seq: d.seq}
		d.bt.Invalidate(srcLocal, srcPage)
		dl, dp := d.sp.LocalOfPPN(dst)
		d.bt.SetOwner(dl, dp, dlpn)
		d.l2p[dlpn] = dst

		var cerr error
		if dstPlane == plane {
			d.stats.GCCopybacks++
			cerr = d.io.Copyback(w, src, dst, oob)
			if cerr != nil {
				d.stats.GCCopybacks--
			}
		} else {
			d.stats.GCWrites++
			cerr = d.io.ProgramPage(w, dst, buf, oob)
			if cerr != nil {
				d.stats.GCWrites--
			}
		}
		if cerr == nil {
			if d.moved != nil {
				return d.moved(w, d.globalLPN(dlpn))
			}
			return nil
		}
		d.bt.Invalidate(dl, dp)
		d.bt.SetOwner(srcLocal, srcPage, dlpn)
		d.l2p[dlpn] = src
		if !errors.Is(cerr, nand.ErrBadBlock) {
			return cerr
		}
		if err := d.retireAndSalvage(w, dl); err != nil {
			return err
		}
	}
}

// globalLPN converts a die-local LPN back to the volume-global LPN (the
// value stored in page OOBs so Rebuild can reconstruct the mapping). The
// stripe is the volume's die count, not the device's: a region-scoped
// volume addresses only its own dies.
func (d *dieMgr) globalLPN(dlpn int64) int64 {
	return dlpn*int64(d.stripe) + int64(d.idx)
}

func (d *dieMgr) eraseAndRelease(w sim.Waiter, local int) error {
	d.stats.Erases++
	err := d.io.EraseBlock(w, d.sp.PBN(local))
	switch {
	case err == nil:
		d.bt.Release(local)
		d.erasesSinceWL++
		return nil
	case errors.Is(err, nand.ErrBadBlock) || errors.Is(err, nand.ErrWornOut):
		d.stats.Erases--
		d.bt.Retire(local)
		return nil
	default:
		return err
	}
}

// retireAndSalvage retires a grown-bad block, moving its still-valid
// pages to healthy blocks via read+program (bad blocks cannot copyback).
func (d *dieMgr) retireAndSalvage(w sim.Waiter, local int) error {
	w = ioreq.WithClass(w, ioreq.ClassGC)
	d.bt.Retire(local)
	plane := d.sp.PlaneOf(local)
	for _, fr := range []*ftl.Frontier{&d.hot[plane], &d.cold[plane], &d.gc[plane], &d.deltaFr[plane], &d.logFr[plane]} {
		if fr.Block == local {
			*fr = ftl.NewFrontier()
		}
	}
	// An open delta page in the retired block stops accepting appends
	// (its live records are salvaged below as a closed page).
	for p := range d.open {
		if d.open[p].valid && d.sp.Local(d.sp.Geo().BlockOf(d.open[p].ppn)) == local {
			d.open[p].valid = false
		}
	}
	info := &d.bt.Info[local]
	ppb := d.sp.PagesPerBlock()
	buf := make([]byte, d.sp.Geo().PageSize)
	for page := 0; page < ppb; page++ {
		dlpn := info.Owners[page]
		if dlpn == ftl.NoOwner {
			continue
		}
		src := d.sp.PPN(local, page)
		if dlpn == deltaOwner {
			if dp := d.deltaPages[src]; dp == nil || dp.live == 0 {
				// Every record already died (the open page just closed).
				info.Owners[page] = ftl.NoOwner
				info.Valid--
				delete(d.deltaPages, src)
				continue
			}
		}
		d.stats.GCReads++
		if _, err := d.io.ReadPage(w, src, buf); err != nil && !errors.Is(err, nand.ErrPageErased) {
			return err
		}
		dst, _, err := d.allocRelocTarget(plane)
		if err != nil {
			return err
		}
		d.seq++
		info.Owners[page] = ftl.NoOwner
		info.Valid--
		dl, dp := d.sp.LocalOfPPN(dst)
		d.bt.SetOwner(dl, dp, dlpn)
		oob := nand.OOB{Seq: d.seq}
		if dlpn == deltaOwner {
			// Record offsets survive the full-page copy, so rewriting
			// the chain refs to the new location is enough.
			d.remapDeltaPage(src, dst)
			oob.LPN = ^uint64(0)
			oob.Flags = oobDeltaFlag
		} else {
			d.l2p[dlpn] = dst
			oob.LPN = uint64(d.globalLPN(dlpn))
		}
		d.stats.GCWrites++
		if err := d.io.ProgramPage(w, dst, buf, oob); err != nil {
			if errors.Is(err, nand.ErrBadBlock) {
				d.stats.GCWrites--
				d.bt.Invalidate(dl, dp)
				info.Owners[page] = dlpn
				info.Valid++
				if dlpn == deltaOwner {
					d.remapDeltaPage(dst, src)
				}
				if err := d.retireAndSalvage(w, dl); err != nil {
					return err
				}
				page--
				continue
			}
			return err
		}
	}
	return nil
}

// maybeWearLevel runs one static wear-leveling step every 16 erases: when
// the plane's wear spread exceeds WearDelta the least-worn used block
// (cold data) is evacuated so its block re-enters circulation.
func (d *dieMgr) maybeWearLevel(w sim.Waiter, plane int) {
	if d.cfg.DisableWearLevel || d.erasesSinceWL < 16 {
		return
	}
	d.erasesSinceWL = 0
	d.wearMove(w, plane)
}

// wearScan returns the erase-count extremes of a plane's non-bad blocks
// and the coldest Used block (the wear-move candidate; -1 if none).
func (d *dieMgr) wearScan(plane int) (minWear, maxWear, coldest int) {
	arr := d.sp.Dev.Array()
	minWear, maxWear = int(^uint(0)>>1), -1
	coldest = -1
	start := plane * d.sp.Geo().BlocksPerPlane
	end := start + d.sp.Geo().BlocksPerPlane
	for b := start; b < end; b++ {
		if d.bt.Info[b].State == ftl.BlockBad {
			continue
		}
		wear := arr.EraseCount(d.sp.PBN(b))
		if wear > maxWear {
			maxWear = wear
		}
		if wear < minWear {
			minWear = wear
			if d.bt.Info[b].State == ftl.BlockUsed {
				coldest = b
			}
		}
	}
	return minWear, maxWear, coldest
}

// wearMove migrates the plane's coldest block if the erase-count spread
// exceeds WearDelta. The move is opportunistic: one that fails is
// retried by a later collection.
func (d *dieMgr) wearMove(w sim.Waiter, plane int) {
	w = ioreq.WithClass(w, ioreq.ClassGC)
	minWear, maxWear, coldest := d.wearScan(plane)
	if coldest < 0 || maxWear-minWear <= d.cfg.WearDelta {
		return
	}
	moves := d.bt.Info[coldest].Valid
	if d.collectBlock(w, coldest, plane) == nil {
		d.stats.WearMoves += int64(moves)
	}
}

// checkAccounting audits internal invariants: every mapped logical page
// owns exactly one slot, per-block valid counters match owned slots, no
// two logical pages share a physical slot, and the delta-chain structures
// (chains, per-page live counts, delta-owned slots) agree. Used by
// property tests.
func (v *Volume) checkAccounting() error {
	for _, d := range v.dies {
		owned := make(map[nand.PPN]int64)
		deltaSlots := make(map[nand.PPN]bool)
		for b := range d.bt.Info {
			info := &d.bt.Info[b]
			count := 0
			for pg, own := range info.Owners {
				if own == ftl.NoOwner {
					continue
				}
				count++
				ppn := d.sp.PPN(b, pg)
				if own == deltaOwner {
					deltaSlots[ppn] = true
					continue
				}
				if prev, dup := owned[ppn]; dup {
					return fmt.Errorf("die %d: slot %d owned twice (%d, %d)", d.sp.Die, ppn, prev, own)
				}
				owned[ppn] = own
				if d.l2p[own] != ppn {
					return fmt.Errorf("die %d: slot %d owned by %d but l2p says %d",
						d.sp.Die, ppn, own, d.l2p[own])
				}
			}
			if count != info.Valid {
				return fmt.Errorf("die %d block %d: valid=%d but %d owned slots", d.sp.Die, b, info.Valid, count)
			}
		}
		for dlpn, ppn := range d.l2p {
			if ppn == nand.InvalidPPN {
				continue
			}
			if owned[ppn] != int64(dlpn) {
				return fmt.Errorf("die %d: l2p[%d]=%d not owned back", d.sp.Die, dlpn, ppn)
			}
		}
		// Delta audit: chain refs, per-page live counts and delta-owned
		// slots must describe the same set of records.
		refs := make(map[nand.PPN]int)
		for dlpn, chain := range d.chains {
			if len(chain) == 0 {
				return fmt.Errorf("die %d: empty chain retained for %d", d.sp.Die, dlpn)
			}
			for _, ref := range chain {
				refs[ref.ppn]++
				pi := d.deltaPages[ref.ppn]
				if pi == nil {
					return fmt.Errorf("die %d: chain of %d references untracked delta page %d",
						d.sp.Die, dlpn, ref.ppn)
				}
			}
		}
		for ppn, pi := range d.deltaPages {
			if pi.live != refs[ppn] {
				return fmt.Errorf("die %d: delta page %d live=%d but %d chain refs",
					d.sp.Die, ppn, pi.live, refs[ppn])
			}
			if pi.live != len(pi.residents) {
				return fmt.Errorf("die %d: delta page %d live=%d but %d residents",
					d.sp.Die, ppn, pi.live, len(pi.residents))
			}
			if !deltaSlots[ppn] && !(pi.live == 0 && d.isOpenDelta(ppn)) {
				return fmt.Errorf("die %d: delta page %d not owned by a delta slot", d.sp.Die, ppn)
			}
		}
		for ppn := range deltaSlots {
			if d.deltaPages[ppn] == nil {
				return fmt.Errorf("die %d: delta slot %d has no page info", d.sp.Die, ppn)
			}
		}
	}
	return nil
}
