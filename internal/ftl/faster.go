package ftl

import (
	"fmt"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// FasterConfig tunes the FASTer hybrid FTL.
type FasterConfig struct {
	// LogFraction is the share of usable blocks dedicated to the
	// page-mapped log area. Default 0.07 (FAST-class FTLs use 3-10%).
	LogFraction float64
	// SecondChance enables FASTer's recycling of valid victim pages to
	// the log tail. Disabling it yields plain FAST behaviour (used by the
	// ablation benchmarks).
	SecondChance bool
}

func (c FasterConfig) withDefaults() FasterConfig {
	if c.LogFraction <= 0 {
		c.LogFraction = 0.07
	}
	return c
}

// FasterFTL implements the FASTer hybrid mapping scheme (Lim, Lee, Moon):
// the data area is block-mapped (logical block -> physical block with
// in-place page offsets) while all updates are appended to a small
// page-mapped log area written round-robin. When the log runs out, the
// oldest log block is reclaimed: still-valid pages get one second chance
// (recycled to the log tail); pages seen twice force a full merge of
// their logical block. Sequential writes stream into a dedicated
// switch-merge block, as in FAST.
//
// Merges are the expensive part: a full merge rewrites a whole logical
// block (copybacks plus erases), which is why the paper measures FASTer's
// GC overhead at roughly twice NoFTL's (Figure 3).
type FasterFTL struct {
	dev  *flash.Device
	st   Striping
	cfg  FasterConfig
	dies []*fasterDie
}

// Block kinds used by FASTer.
const (
	kindFData uint8 = 20
	kindFLog  uint8 = 21
	kindFSW   uint8 = 22
)

type fasterDie struct {
	sp          DieSpace
	bt          *BlockTable
	cfg         FasterConfig
	dataMap     []int              // die-local lbn -> local block id, -1 none
	logMap      map[int64]nand.PPN // dlpn -> log-resident version
	second      map[int64]bool     // second-chance flags
	logBlocks   []int              // FIFO, oldest first; tail is the frontier's block
	logFrontier Frontier
	maxLog      int
	sw          Frontier
	swLbn       int64 // -1 when no sequential block active
	lastDlpn    int64 // previous host write, for sequential detection
	seq         uint64
	numLbns     int
	busy        bool          // per-die command latch (see lock)
	waiters     sim.WaitQueue // its FIFO of waiting commands
	stats       Stats
}

// lock serializes operations on the die. FASTer's reclaims and merges
// are long multi-step sequences whose intermediate states must not be
// observed; real hybrid-FTL firmware serializes per-bank command
// handling the same way — and that serialization is part of why FTL
// latency outliers hit concurrent requests so hard. unlock hands the
// latch to the longest-waiting command.
func (d *fasterDie) lock(w sim.Waiter) {
	if d.busy {
		d.waiters.Wait(w, 0) // granted: the latch came to us held
		return
	}
	d.busy = true
}

func (d *fasterDie) unlock() {
	if !d.waiters.Grant() {
		d.busy = false
	}
}

// NewFasterFTL builds a FASTer FTL over dev.
func NewFasterFTL(dev *flash.Device, cfg FasterConfig) (*FasterFTL, error) {
	cfg = cfg.withDefaults()
	geo := dev.Geometry()
	f := &FasterFTL{dev: dev, cfg: cfg}
	perDie := int64(1<<62 - 1)
	for die := 0; die < geo.Dies(); die++ {
		d, err := newFasterDie(dev, die, cfg)
		if err != nil {
			return nil, err
		}
		f.dies = append(f.dies, d)
		if n := int64(d.numLbns) * int64(geo.PagesPerBlock); n < perDie {
			perDie = n
		}
	}
	f.st = Striping{Dies: geo.Dies(), PerDie: perDie}
	return f, nil
}

func newFasterDie(dev *flash.Device, die int, cfg FasterConfig) (*fasterDie, error) {
	sp := NewDieSpace(dev, die)
	d := &fasterDie{
		sp:          sp,
		bt:          NewBlockTable(sp),
		cfg:         cfg,
		logMap:      make(map[int64]nand.PPN),
		second:      make(map[int64]bool),
		logFrontier: NewFrontier(),
		sw:          NewFrontier(),
		swLbn:       -1,
		lastDlpn:    -1,
	}
	usable := d.bt.Usable()
	d.maxLog = int(float64(usable) * cfg.LogFraction)
	if d.maxLog < 2 {
		d.maxLog = 2
	}
	const reserve = 3 // merge target + log refill + slack
	d.numLbns = usable - d.maxLog - 1 /* SW block */ - reserve
	if d.numLbns <= 0 {
		return nil, fmt.Errorf("ftl: faster die %d has no usable capacity", die)
	}
	d.dataMap = make([]int, d.numLbns)
	for i := range d.dataMap {
		d.dataMap[i] = -1
	}
	return d, nil
}

// Name implements FTL.
func (f *FasterFTL) Name() string { return "faster" }

// LogicalPages implements FTL.
func (f *FasterFTL) LogicalPages() int64 { return f.st.Total() }

// Stats implements FTL.
func (f *FasterFTL) Stats() Stats {
	var s Stats
	for _, d := range f.dies {
		s = s.Add(d.stats)
	}
	return s
}

// Read implements FTL.
func (f *FasterFTL) Read(w sim.Waiter, lpn int64, buf []byte) error {
	if err := f.st.checkRange(lpn); err != nil {
		return err
	}
	return f.dies[f.st.DieOf(lpn)].read(w, f.st.DieLPN(lpn), buf)
}

// Write implements FTL.
func (f *FasterFTL) Write(w sim.Waiter, lpn int64, data []byte) error {
	if err := f.st.checkRange(lpn); err != nil {
		return err
	}
	return f.dies[f.st.DieOf(lpn)].write(w, f.st.DieLPN(lpn), lpn, data)
}

// Trim implements FTL.
func (f *FasterFTL) Trim(w sim.Waiter, lpn int64) error {
	if err := f.st.checkRange(lpn); err != nil {
		return err
	}
	f.dies[f.st.DieOf(lpn)].trim(f.st.DieLPN(lpn))
	return nil
}

func (d *fasterDie) ppb() int { return d.sp.PagesPerBlock() }

// current returns the PPN of dlpn's valid version, ok=false if unwritten.
func (d *fasterDie) current(dlpn int64) (nand.PPN, bool) {
	if ppn, ok := d.logMap[dlpn]; ok {
		return ppn, true
	}
	lbn := dlpn / int64(d.ppb())
	offset := int(dlpn % int64(d.ppb()))
	if b := d.dataMap[lbn]; b >= 0 && d.bt.Info[b].Owners[offset] == dlpn {
		return d.sp.PPN(b, offset), true
	}
	return 0, false
}

// invalidateCurrent clears dlpn's valid version wherever it lives.
func (d *fasterDie) invalidateCurrent(dlpn int64) {
	ppn, ok := d.current(dlpn)
	if !ok {
		return
	}
	local, page := d.sp.LocalOfPPN(ppn)
	d.bt.Invalidate(local, page)
	delete(d.logMap, dlpn)
	delete(d.second, dlpn)
}

func (d *fasterDie) read(w sim.Waiter, dlpn int64, buf []byte) error {
	d.lock(w)
	defer d.unlock()
	ppn, ok := d.current(dlpn)
	if !ok {
		zero(buf)
		return nil
	}
	d.stats.HostReads++
	_, err := d.sp.Dev.ReadPage(w, ppn, buf)
	return err
}

func (d *fasterDie) trim(dlpn int64) {
	d.invalidateCurrent(dlpn)
	d.stats.Trims++
}

func (d *fasterDie) write(w sim.Waiter, dlpn, globalLPN int64, data []byte) error {
	d.lock(w)
	defer d.unlock()
	ppb := int64(d.ppb())
	lbn := dlpn / ppb
	offset := int(dlpn % ppb)
	sequential := dlpn == d.lastDlpn+1 || d.lastDlpn < 0
	d.lastDlpn = dlpn

	switch {
	case offset == 0 && sequential:
		// A sequential stream crossed into a new logical block: stream it
		// into the switch-merge block. (Isolated offset-0 writes from a
		// random workload go to the log instead — starting an SW block
		// for them would thrash partial merges.)
		if err := d.finalizeSW(w); err != nil {
			return err
		}
		if err := d.startSW(lbn); err == nil {
			return d.programSW(w, dlpn, globalLPN, data)
		}
		// No room for an SW block; degrade to the random log.
		return d.appendLog(w, dlpn, globalLPN, data)
	case d.swLbn == lbn && d.sw.Block >= 0 && offset == d.sw.Next:
		return d.programSW(w, dlpn, globalLPN, data)
	default:
		return d.appendLog(w, dlpn, globalLPN, data)
	}
}

// startSW allocates a fresh sequential-write block for lbn.
func (d *fasterDie) startSW(lbn int64) error {
	b, ok := d.allocAnyPlane(kindFSW)
	if !ok {
		return fmt.Errorf("%w: faster die %d cannot allocate SW block", ErrGCStuck, d.sp.Die)
	}
	d.sw = Frontier{Block: b, Next: 0}
	d.swLbn = lbn
	return nil
}

// programSW writes the next sequential page into the SW block, switching
// it into the data map when it fills.
func (d *fasterDie) programSW(w sim.Waiter, dlpn, globalLPN int64, data []byte) error {
	ppn := d.sp.PPN(d.sw.Block, d.sw.Next)
	d.seq++
	d.invalidateCurrent(dlpn)
	d.bt.SetOwner(d.sw.Block, d.sw.Next, dlpn)
	d.logMap[dlpn] = ppn
	d.sw.Next++
	d.stats.HostWrites++
	if err := d.sp.Dev.ProgramPage(w, ppn, data, nand.OOB{LPN: uint64(globalLPN), Seq: d.seq}); err != nil {
		return err
	}
	if d.sw.Next == d.ppb() {
		return d.switchMerge(w)
	}
	return nil
}

// switchMerge promotes a completely filled SW block to data block — the
// free merge.
func (d *fasterDie) switchMerge(w sim.Waiter) error {
	lbn := d.swLbn
	b := d.sw.Block
	old := d.dataMap[lbn]
	d.stats.SwitchMerges++
	d.adoptDataBlock(lbn, b)
	d.swLbn = -1
	d.sw = NewFrontier()
	return d.eraseOldData(w, lbn, old)
}

// adoptDataBlock installs b as lbn's data block and drops the log entries
// that now alias in-place pages.
func (d *fasterDie) adoptDataBlock(lbn int64, b int) {
	d.dataMap[lbn] = b
	d.bt.Info[b].Kind = kindFData
	d.bt.MarkFull(b)
	base := lbn * int64(d.ppb())
	for off := 0; off < d.ppb(); off++ {
		dlpn := base + int64(off)
		if ppn, ok := d.logMap[dlpn]; ok {
			if l, _ := d.sp.LocalOfPPN(ppn); l == b {
				delete(d.logMap, dlpn)
				delete(d.second, dlpn)
			}
		}
	}
}

// eraseOldData erases lbn's replaced data block, which must be fully
// invalid by now.
func (d *fasterDie) eraseOldData(w sim.Waiter, lbn int64, old int) error {
	if old < 0 {
		return nil
	}
	if d.bt.Info[old].Valid != 0 {
		leftovers := ""
		for pg, own := range d.bt.Info[old].Owners {
			if own != NoOwner {
				_, inLog := d.logMap[own]
				leftovers += fmt.Sprintf(" page=%d dlpn=%d inLog=%v", pg, own, inLog)
			}
		}
		return fmt.Errorf("ftl: faster merge of lbn %d left old block %d with %d valid pages:%s",
			lbn, old, d.bt.Info[old].Valid, leftovers)
	}
	d.stats.Erases++
	if err := d.sp.Dev.EraseBlock(w, d.sp.PBN(old)); err != nil {
		d.stats.Erases--
		d.bt.Retire(old)
		return nil
	}
	d.bt.Release(old)
	return nil
}

// appendLog writes dlpn to the round-robin log tail, reclaiming the
// oldest log block first when the log area is exhausted.
func (d *fasterDie) appendLog(w sim.Waiter, dlpn, globalLPN int64, data []byte) error {
	if d.logFrontier.Full(d.ppb()) {
		if err := d.advanceLog(w); err != nil {
			return err
		}
	}
	ppn := d.sp.PPN(d.logFrontier.Block, d.logFrontier.Next)
	page := d.logFrontier.Next
	d.logFrontier.Next++
	d.seq++
	d.invalidateCurrent(dlpn)
	d.bt.SetOwner(d.logFrontier.Block, page, dlpn)
	d.logMap[dlpn] = ppn
	d.stats.HostWrites++
	return d.sp.Dev.ProgramPage(w, ppn, data, nand.OOB{LPN: uint64(globalLPN), Seq: d.seq})
}

// advanceLog opens a new log block, reclaiming the oldest one first if
// the log area is at capacity.
func (d *fasterDie) advanceLog(w sim.Waiter) error {
	if d.logFrontier.Block >= 0 {
		d.bt.MarkFull(d.logFrontier.Block)
	}
	if len(d.logBlocks) >= d.maxLog {
		if err := d.reclaimOldestLog(w); err != nil {
			return err
		}
	}
	b, ok := d.allocAnyPlane(kindFLog)
	if !ok {
		return fmt.Errorf("%w: faster die %d cannot allocate log block", ErrGCStuck, d.sp.Die)
	}
	d.logBlocks = append(d.logBlocks, b)
	d.logFrontier = Frontier{Block: b, Next: 0}
	return nil
}

// reclaimOldestLog processes the oldest log block: still-valid pages get
// one second chance at the log tail; pages on their second encounter
// trigger a full merge of their logical block.
func (d *fasterDie) reclaimOldestLog(w sim.Waiter) error {
	victim := d.logBlocks[0]
	d.logBlocks = d.logBlocks[1:]
	info := &d.bt.Info[victim]
	ppb := d.ppb()
	for page := 0; page < ppb; page++ {
		dlpn := info.Owners[page]
		if dlpn == NoOwner {
			continue
		}
		if d.cfg.SecondChance && !d.second[dlpn] {
			if d.relocateToLogTail(w, victim, page, dlpn) {
				d.second[dlpn] = true
				continue
			}
		}
		if err := d.fullMerge(w, dlpn/int64(ppb)); err != nil {
			return err
		}
		if info.Owners[page] != NoOwner {
			return fmt.Errorf("ftl: faster merge left page %d of victim %d valid", page, victim)
		}
	}
	if info.Valid != 0 {
		return fmt.Errorf("ftl: faster reclaim left %d valid pages in block %d", info.Valid, victim)
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

// relocateToLogTail gives a valid victim page a second chance by moving
// it to the log tail. Returns false when the log has no room (the caller
// merges instead).
func (d *fasterDie) relocateToLogTail(w sim.Waiter, victim, page int, dlpn int64) bool {
	if d.logFrontier.Full(d.ppb()) {
		if len(d.logBlocks) >= d.maxLog {
			return false
		}
		b, ok := d.allocAnyPlane(kindFLog)
		if !ok {
			return false
		}
		if d.logFrontier.Block >= 0 {
			d.bt.MarkFull(d.logFrontier.Block)
		}
		d.logBlocks = append(d.logBlocks, b)
		d.logFrontier = Frontier{Block: b, Next: 0}
	}
	dst := d.sp.PPN(d.logFrontier.Block, d.logFrontier.Next)
	dstPage := d.logFrontier.Next
	d.logFrontier.Next++
	d.seq++
	src := d.sp.PPN(victim, page)
	oob := nand.OOB{LPN: uint64(d.globalLPN(dlpn)), Seq: d.seq}
	d.bt.Invalidate(victim, page)
	d.bt.SetOwner(d.logFrontier.Block, dstPage, dlpn)
	d.logMap[dlpn] = dst
	if d.sp.PlaneOf(d.logFrontier.Block) == d.sp.PlaneOf(victim) {
		d.stats.GCCopybacks++
		if err := d.sp.Dev.Copyback(w, src, dst, oob); err != nil {
			d.stats.GCCopybacks--
			return false
		}
		return true
	}
	d.stats.GCReads++
	d.stats.GCWrites++
	buf := make([]byte, d.sp.Geo().PageSize)
	if _, err := d.sp.Dev.ReadPage(w, src, buf); err != nil {
		return false
	}
	if err := d.sp.Dev.ProgramPage(w, dst, buf, oob); err != nil {
		return false
	}
	return true
}

// fullMerge rewrites logical block lbn into a fresh physical block,
// gathering the newest version of every page from the log and the old
// data block, then erases the old copies.
func (d *fasterDie) fullMerge(w sim.Waiter, lbn int64) error {
	ppb := d.ppb()
	old := d.dataMap[lbn]
	// If this lbn's sequential-write block is active, the merge below
	// relocates its pages (they are current versions), leaving the SW
	// block fully invalid — but the SW cursor would keep steering future
	// writes into it and the eventual partial merge would assume its
	// early pages are still valid. Cancel the SW stream and reclaim the
	// block after the relocations.
	swb := -1
	if d.swLbn == lbn && d.sw.Block >= 0 {
		swb = d.sw.Block
		d.swLbn = -1
		d.sw = NewFrontier()
	}
	var newB int
	var ok bool
	if old >= 0 {
		// Merge into the old block's plane so relocations stay
		// copyback-eligible.
		newB, ok = d.allocPreferPlane(d.sp.PlaneOf(old), kindFData)
	} else {
		newB, ok = d.allocAnyPlane(kindFData)
	}
	if !ok {
		return fmt.Errorf("%w: faster die %d cannot allocate merge block", ErrGCStuck, d.sp.Die)
	}
	base := lbn * int64(ppb)

	// Find the last offset that has a valid version; the suffix beyond it
	// can stay erased (in-order programming allows a clean tail).
	last := -1
	for off := 0; off < ppb; off++ {
		if _, ok := d.current(base + int64(off)); ok {
			last = off
		}
	}
	buf := make([]byte, d.sp.Geo().PageSize)
	for off := 0; off <= last; off++ {
		dlpn := base + int64(off)
		src, ok := d.current(dlpn)
		dst := d.sp.PPN(newB, off)
		d.seq++
		if !ok {
			// Interior hole: a filler program keeps the block in-order.
			d.stats.GCWrites++
			if err := d.sp.Dev.ProgramPage(w, dst, nil, nand.OOB{Seq: d.seq}); err != nil {
				return err
			}
			continue
		}
		oob := nand.OOB{LPN: uint64(d.globalLPN(dlpn)), Seq: d.seq}
		sl, spg := d.sp.LocalOfPPN(src)
		d.bt.Invalidate(sl, spg)
		delete(d.logMap, dlpn)
		delete(d.second, dlpn)
		d.bt.SetOwner(newB, off, dlpn)
		if d.sp.PlaneOf(sl) == d.sp.PlaneOf(newB) {
			d.stats.GCCopybacks++
			if err := d.sp.Dev.Copyback(w, src, dst, oob); err != nil {
				return err
			}
		} else {
			d.stats.GCReads++
			d.stats.GCWrites++
			if _, err := d.sp.Dev.ReadPage(w, src, buf); err != nil {
				return err
			}
			if err := d.sp.Dev.ProgramPage(w, dst, buf, oob); err != nil {
				return err
			}
		}
	}
	d.dataMap[lbn] = newB
	d.bt.MarkFull(newB)
	d.stats.FullMerges++
	if swb >= 0 {
		if d.bt.Info[swb].Valid != 0 {
			return fmt.Errorf("ftl: faster merge of lbn %d left cancelled SW block %d with %d valid pages",
				lbn, swb, d.bt.Info[swb].Valid)
		}
		d.stats.Erases++
		if err := d.sp.Dev.EraseBlock(w, d.sp.PBN(swb)); err != nil {
			d.stats.Erases--
			d.bt.Retire(swb)
		} else {
			d.bt.Release(swb)
		}
	}
	return d.eraseOldData(w, lbn, old)
}

// finalizeSW completes a partially filled SW block with a partial merge:
// the remaining offsets are filled from their current versions and the
// block switches into the data map.
func (d *fasterDie) finalizeSW(w sim.Waiter) error {
	if d.swLbn < 0 {
		return nil
	}
	lbn := d.swLbn
	b := d.sw.Block
	ppb := d.ppb()
	old := d.dataMap[lbn]
	base := lbn * int64(ppb)

	if d.sw.Next == ppb {
		// Already full; switchMerge handled it. Defensive only.
		d.swLbn = -1
		d.sw = NewFrontier()
		return nil
	}
	last := d.sw.Next - 1
	for off := d.sw.Next; off < ppb; off++ {
		if _, ok := d.current(base + int64(off)); ok {
			last = off
		}
	}
	buf := make([]byte, d.sp.Geo().PageSize)
	for off := d.sw.Next; off <= last; off++ {
		dlpn := base + int64(off)
		src, ok := d.current(dlpn)
		dst := d.sp.PPN(b, off)
		d.seq++
		if !ok {
			d.stats.GCWrites++
			if err := d.sp.Dev.ProgramPage(w, dst, nil, nand.OOB{Seq: d.seq}); err != nil {
				return err
			}
			continue
		}
		oob := nand.OOB{LPN: uint64(d.globalLPN(dlpn)), Seq: d.seq}
		sl, spg := d.sp.LocalOfPPN(src)
		d.bt.Invalidate(sl, spg)
		delete(d.logMap, dlpn)
		delete(d.second, dlpn)
		d.bt.SetOwner(b, off, dlpn)
		if d.sp.PlaneOf(sl) == d.sp.PlaneOf(b) {
			d.stats.GCCopybacks++
			if err := d.sp.Dev.Copyback(w, src, dst, oob); err != nil {
				return err
			}
		} else {
			d.stats.GCReads++
			d.stats.GCWrites++
			if _, err := d.sp.Dev.ReadPage(w, src, buf); err != nil {
				return err
			}
			if err := d.sp.Dev.ProgramPage(w, dst, buf, oob); err != nil {
				return err
			}
		}
	}
	d.stats.PartialMerges++
	d.adoptDataBlock(lbn, b)
	d.swLbn = -1
	d.sw = NewFrontier()
	return d.eraseOldData(w, lbn, old)
}

// allocAnyPlane pops a free block from the least-pressured plane.
func (d *fasterDie) allocAnyPlane(kind uint8) (int, bool) {
	best, bestFree := -1, -1
	for p := 0; p < d.sp.Planes(); p++ {
		if f := d.bt.FreeCount(p); f > bestFree {
			best, bestFree = p, f
		}
	}
	if bestFree <= 0 {
		return 0, false
	}
	return d.bt.AllocFree(best, kind)
}

// allocPreferPlane pops a free block from the preferred plane, falling
// back to siblings.
func (d *fasterDie) allocPreferPlane(plane int, kind uint8) (int, bool) {
	for i := 0; i < d.sp.Planes(); i++ {
		q := (plane + i) % d.sp.Planes()
		if d.bt.FreeCount(q) > 0 {
			return d.bt.AllocFree(q, kind)
		}
	}
	return 0, false
}

func (d *fasterDie) globalLPN(dlpn int64) int64 {
	return dlpn*int64(d.sp.Geo().Dies()) + int64(d.sp.Die)
}
