package ftl

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"noftl/internal/flash"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// SeqLog is a block-granular sequential mapping scheme for append-only
// streams (the WAL, archive logs). Where a page-mapped volume keeps one
// translation entry per page, the sequential scheme keeps one entry per
// erase block: the mapping is an ordered extent list, positions inside
// an extent are positional, and the write frontier only moves forward.
//
// Its "garbage collection" is truncation: when the host declares a
// prefix of the stream dead (a checkpoint advanced past it), whole
// blocks are erased and recycled — no copies, no victim selection, no
// page map entries. This is exactly the management policy that fits a
// log: uFLIP-style sequential appends behave perfectly on flash, and
// the DBMS knows precisely when log bytes die.
//
// A SeqLog owns a set of dies (its region) and round-robins extent
// allocation across them so sequential appends still enjoy die
// parallelism. Stream positions are page-granular and monotonically
// increasing; position p lives at page (p-base)%ppb of extent
// (p-base)/ppb, where base is the position of the oldest retained
// extent's first page.
var (
	// ErrLogSpace reports that the log region is out of free blocks;
	// the host must truncate (checkpoint) before appending more.
	ErrLogSpace = errors.New("ftl: sequential log region out of space")
	// ErrLogRange reports a read outside [Head, Next).
	ErrLogRange = errors.New("ftl: sequential log position out of range")
)

// OOBSeqLogFlag marks pages written by a SeqLog in the spare area, so
// rebuild scans can tell log extents from page-mapped data. (Bit 0 is
// DFTL's translation-page marker, bit 1 the NoFTL delta-page marker.)
const OOBSeqLogFlag uint32 = 1 << 2

// kindSeqLog marks log extents in the block tables.
const kindSeqLog uint8 = 7

// seqLogReservePerDie keeps this many free blocks per die out of the
// exported capacity as bad-block headroom.
const seqLogReservePerDie = 1

// SeqLogConfig tunes a SeqLog.
type SeqLogConfig struct {
	// Dies lists the device dies the log region owns. Empty means every
	// die of the device.
	Dies []int
	// Dev optionally routes every command through a command scheduler's
	// device (sched.Scheduler.Dev). Nil: the raw device.
	Dev flash.Dev
}

func (c SeqLogConfig) withDefaults(dev *flash.Device) SeqLogConfig {
	if len(c.Dies) == 0 {
		for die := 0; die < dev.Geometry().Dies(); die++ {
			c.Dies = append(c.Dies, die)
		}
	}
	return c
}

// seqExt is one extent: a die-local block on one of the region's dies.
type seqExt struct {
	die   int // index into l.sps
	local int
}

// SeqLog is the sequential log region manager.
type SeqLog struct {
	dev   *flash.Device
	io    flash.Dev // every command (SeqLogConfig.Dev, else the raw device)
	sps   []DieSpace
	bts   []*BlockTable
	exts  []seqExt
	base  int64 // stream position of exts[0], page 0
	next  int64 // next append position
	rr    int   // die round-robin cursor for extent allocation
	seq   uint64
	stats Stats
}

// NewSeqLog builds an empty sequential log over the configured dies.
func NewSeqLog(dev *flash.Device, cfg SeqLogConfig) (*SeqLog, error) {
	cfg = cfg.withDefaults(dev)
	l := &SeqLog{dev: dev}
	l.io = cfg.Dev
	if l.io == nil {
		l.io = dev
	}
	for _, die := range cfg.Dies {
		if die < 0 || die >= dev.Geometry().Dies() {
			return nil, fmt.Errorf("ftl: seqlog die %d out of range", die)
		}
		sp := NewDieSpace(dev, die)
		l.sps = append(l.sps, sp)
		l.bts = append(l.bts, NewBlockTable(sp))
	}
	if l.CapacityPages() <= 0 {
		return nil, fmt.Errorf("ftl: seqlog region has no usable capacity")
	}
	return l, nil
}

// Stats returns cumulative counters. Erases here are pure truncation;
// GCReads/GCWrites count only bad-block salvage copies — the scheme
// never relocates pages to reclaim space.
func (l *SeqLog) Stats() Stats { return l.stats }

// PageSize returns the page size in bytes.
func (l *SeqLog) PageSize() int { return l.sps[0].Geo().PageSize }

// CapacityPages is the number of stream pages the region can hold at
// once (usable blocks minus the bad-block reserve, times pages/block).
func (l *SeqLog) CapacityPages() int64 {
	blocks := 0
	for _, bt := range l.bts {
		b := bt.Usable() - seqLogReservePerDie
		if b > 0 {
			blocks += b
		}
	}
	return int64(blocks) * int64(l.ppb())
}

// FreeBlocks is the number of whole blocks of stream capacity not yet
// holding retained pages (the log's headroom before truncation must
// reclaim extents).
func (l *SeqLog) FreeBlocks() int64 {
	free := l.CapacityPages() - l.LivePages()
	if free < 0 {
		return 0
	}
	return free / int64(l.ppb())
}

// Bounds returns the retained stream window [head, next): head is the
// oldest readable position, next the position the next Append gets.
func (l *SeqLog) Bounds() (head, next int64) { return l.base, l.next }

// LivePages is the number of retained stream pages.
func (l *SeqLog) LivePages() int64 { return l.next - l.base }

// ppb is pages per block (uniform across the region's dies).
func (l *SeqLog) ppb() int { return l.sps[0].PagesPerBlock() }

// frontierRoom reports how many pages the open tail extent still has.
func (l *SeqLog) frontierRoom() int {
	if len(l.exts) == 0 {
		return 0
	}
	used := int(l.next-l.base) - (len(l.exts)-1)*l.ppb()
	return l.ppb() - used
}

// allocExtent opens a fresh block as the next extent, round-robin over
// the region's dies. When every die's free pool is dry the log is full
// and the host must truncate (checkpoint).
func (l *SeqLog) allocExtent() error {
	for i := 0; i < len(l.sps); i++ {
		die := (l.rr + i) % len(l.sps)
		for plane := 0; plane < l.sps[die].Planes(); plane++ {
			if local, ok := l.bts[die].AllocFree(plane, kindSeqLog); ok {
				l.exts = append(l.exts, seqExt{die: die, local: local})
				l.rr = (die + 1) % len(l.sps)
				return nil
			}
		}
	}
	return fmt.Errorf("%w: %d extents live", ErrLogSpace, len(l.exts))
}

// ppnAt returns the physical page of stream position pos.
func (l *SeqLog) ppnAt(pos int64) nand.PPN {
	idx := int(pos-l.base) / l.ppb()
	page := int(pos-l.base) % l.ppb()
	e := l.exts[idx]
	return l.sps[e.die].PPN(e.local, page)
}

// Append programs data as the next stream page and returns its position.
// The only failure modes are device errors, ErrLogSpace and ErrLogRange:
// appends never trigger garbage collection. The request descriptor's
// declared class (if any) overrides the region's WAL-class routing at an
// attached scheduler.
func (l *SeqLog) Append(rq ioreq.Req, data []byte) (int64, error) {
	if l.next == math.MaxInt64 { // a hostile rebuilt OOB: one more append would wrap
		return 0, fmt.Errorf("%w: the stream ends at %d", ErrLogRange, l.next)
	}
	w := rq.Waiter()
	for attempt := 0; ; attempt++ {
		if attempt > len(l.sps)*l.sps[0].Blocks() {
			return 0, fmt.Errorf("%w: seqlog cannot place an append", ErrLogSpace)
		}
		if l.frontierRoom() == 0 {
			if len(l.exts) > 0 {
				tail := l.exts[len(l.exts)-1]
				l.bts[tail.die].MarkFull(tail.local)
			}
			if err := l.allocExtent(); err != nil {
				return 0, err
			}
		}
		pos := l.next
		ppn := l.ppnAt(pos)
		e := l.exts[len(l.exts)-1]
		page := l.sps[e.die].Geo().PageIndex(ppn)
		l.seq++
		oob := nand.OOB{LPN: uint64(pos), Seq: l.seq, Flags: OOBSeqLogFlag}
		l.bts[e.die].SetOwner(e.local, page, pos)
		l.next = pos + 1
		l.stats.HostWrites++

		err := l.io.ProgramPage(w, ppn, data, oob)
		if err == nil {
			return pos, nil
		}
		// Roll back; on a grown bad block salvage the extent's already-
		// programmed pages into a fresh block and retry.
		l.stats.HostWrites--
		l.next = pos
		l.bts[e.die].Invalidate(e.local, page)
		if !errors.Is(err, nand.ErrBadBlock) {
			return 0, err
		}
		if serr := l.salvageTail(w); serr != nil {
			return 0, serr
		}
	}
}

// salvageTail relocates the programmed pages of the (bad) tail extent
// into a fresh block, preserving their stream positions, and retires the
// bad block. The copy work is charged as GC reads/writes — it is the
// sequential scheme's only relocation path and runs only on grown bad
// blocks, never for space reclamation.
func (l *SeqLog) salvageTail(w sim.Waiter) error {
	// Salvage copies are maintenance: they dispatch in the GC class no
	// matter which class the failing append declared.
	w = ioreq.WithClass(w, ioreq.ClassGC)
	bad := l.exts[len(l.exts)-1]
	extStart := l.base + int64(len(l.exts)-1)*int64(l.ppb())
	nLive := int(l.next - extStart)
	l.bts[bad.die].Retire(bad.local)
	l.exts = l.exts[:len(l.exts)-1]
	buf := make([]byte, l.PageSize())
retry:
	for {
		if err := l.allocExtent(); err != nil {
			return err
		}
		repl := l.exts[len(l.exts)-1]
		for i := 0; i < nLive; i++ {
			src := l.sps[bad.die].PPN(bad.local, i)
			dst := l.sps[repl.die].PPN(repl.local, i)
			l.stats.GCReads++
			if _, err := l.io.ReadPage(w, src, buf); err != nil && !errors.Is(err, nand.ErrPageErased) {
				return err
			}
			l.seq++
			oob := nand.OOB{LPN: uint64(extStart + int64(i)), Seq: l.seq, Flags: OOBSeqLogFlag}
			l.stats.GCWrites++
			if err := l.io.ProgramPage(w, dst, buf, oob); err != nil {
				l.stats.GCWrites--
				if errors.Is(err, nand.ErrBadBlock) {
					// The replacement went bad too: drop it and retry.
					for j := 0; j < i; j++ {
						l.bts[repl.die].Invalidate(repl.local, j)
					}
					l.bts[repl.die].Retire(repl.local)
					l.exts = l.exts[:len(l.exts)-1]
					continue retry
				}
				return err
			}
			l.bts[repl.die].SetOwner(repl.local, i, extStart+int64(i))
		}
		return nil
	}
}

// ReadAt reads the stream page at pos into buf.
func (l *SeqLog) ReadAt(rq ioreq.Req, pos int64, buf []byte) error {
	if pos < l.base || pos >= l.next {
		return fmt.Errorf("%w: %d not in [%d,%d)", ErrLogRange, pos, l.base, l.next)
	}
	l.stats.HostReads++
	_, err := l.io.ReadPage(rq.Waiter(), l.ppnAt(pos), buf)
	if errors.Is(err, nand.ErrPageErased) {
		return nil
	}
	return err
}

// Truncate declares every stream position below keepFrom dead and
// erases the extents that became fully dead. This is the region's
// entire GC: block-granular, copy-free, driven by the DBMS checkpoint.
func (l *SeqLog) Truncate(rq ioreq.Req, keepFrom int64) error {
	// Truncation erases are the region's GC: dispatch them in the GC
	// class regardless of the caller's declared class, but keep its tag.
	w := ioreq.WithClass(rq.Waiter(), ioreq.ClassGC)
	if keepFrom > l.next {
		keepFrom = l.next
	}
	ppb := int64(l.ppb())
	for len(l.exts) > 1 && l.base+ppb <= keepFrom {
		e := l.exts[0]
		l.stats.Erases++
		err := l.io.EraseBlock(w, l.sps[e.die].PBN(e.local))
		switch {
		case err == nil:
			l.bts[e.die].Release(e.local)
		case errors.Is(err, nand.ErrBadBlock) || errors.Is(err, nand.ErrWornOut):
			l.stats.Erases--
			l.bts[e.die].Retire(e.local)
		default:
			l.stats.Erases--
			return err
		}
		l.exts = l.exts[1:]
		l.base += ppb
	}
	l.stats.Trims++
	return nil
}

// seqScan is one discovered log extent during a rebuild.
type seqScan struct {
	ext    seqExt
	first  int64 // stream position of page 0
	filled int   // programmed pages
	seq    uint64
}

// RebuildSeqLog reconstructs a SeqLog's extent list from the out-of-band
// metadata on flash: every non-free block on the region's dies whose
// first page carries OOBSeqLogFlag is a log extent; its first page's
// stream position orders the extents, and the programmed-page count of
// the last extent recovers the write frontier. This is the restart path
// the host runs before WAL recovery — the mapping is so small (one entry
// per block) that the scan cost is the whole cost.
func RebuildSeqLog(dev *flash.Device, cfg SeqLogConfig, rq ioreq.Req) (*SeqLog, error) {
	l, err := NewSeqLog(dev, cfg)
	if err != nil {
		return nil, err
	}
	w := rq.Waiter()
	geo := dev.Geometry()
	arr := dev.Array()
	var scan []seqScan
	for di, sp := range l.sps {
		for local := 0; local < sp.Blocks(); local++ {
			pbn := sp.PBN(local)
			if arr.IsBad(pbn) {
				l.bts[di].Retire(local)
				continue
			}
			programmed := arr.NextProgramPage(pbn)
			if programmed == 0 {
				continue
			}
			oob, err := dev.ReadPage(w, geo.FirstPage(pbn), nil)
			if err != nil && !errors.Is(err, nand.ErrPageErased) {
				return nil, fmt.Errorf("ftl: seqlog rebuild scan: %w", err)
			}
			l.stats.HostReads++
			if oob.Flags&OOBSeqLogFlag == 0 {
				continue // foreign block (shared-device layouts)
			}
			plane := sp.PlaneOf(local)
			if _, ok := l.bts[di].TakeFree(plane, local); !ok {
				continue
			}
			scan = append(scan, seqScan{
				ext: seqExt{die: di, local: local}, first: int64(oob.LPN),
				filled: programmed, seq: oob.Seq,
			})
		}
	}
	if len(scan) == 0 {
		return l, nil
	}
	// Order extents by stream position. Duplicate positions can exist
	// only if a crash interrupted a bad-block salvage; keep the copy
	// with the higher write sequence.
	sort.Slice(scan, func(i, j int) bool { return seqScanLess(scan[i], scan[j]) })
	dedup := scan[:1:1]
	var dropped []seqExt
	for _, f := range scan[1:] {
		last := &dedup[len(dedup)-1]
		if f.first == last.first {
			if f.seq > last.seq {
				dropped = append(dropped, last.ext)
				*last = f
			} else {
				dropped = append(dropped, f.ext)
			}
			continue
		}
		dedup = append(dedup, f)
	}
	// Blocks that lost the duplicate-position race (a crash interrupted
	// a salvage) hold stale copies: erase them back into the free pool
	// so the region's capacity stays whole.
	for _, e := range dropped {
		err := dev.EraseBlock(w, l.sps[e.die].PBN(e.local))
		switch {
		case err == nil:
			l.stats.Erases++
			l.bts[e.die].Release(e.local)
		case errors.Is(err, nand.ErrBadBlock) || errors.Is(err, nand.ErrWornOut):
			l.bts[e.die].Retire(e.local)
		default:
			return nil, fmt.Errorf("ftl: seqlog rebuild: reclaim stale extent: %w", err)
		}
	}
	ppb := int64(l.ppb())
	l.base = dedup[0].first
	pos := l.base
	maxSeq := uint64(0)
	for i, f := range dedup {
		if f.first < 0 || f.first > math.MaxInt64-ppb {
			// Appends count up from 0; past the top the window would wrap.
			return nil, fmt.Errorf("ftl: seqlog rebuild: extent at position %d outside the stream", f.first)
		}
		if f.first != pos {
			return nil, fmt.Errorf("ftl: seqlog rebuild: extent gap at position %d (found %d)", pos, f.first)
		}
		if i < len(dedup)-1 && f.filled != int(ppb) {
			return nil, fmt.Errorf("ftl: seqlog rebuild: interior extent at %d only %d/%d pages", f.first, f.filled, ppb)
		}
		l.exts = append(l.exts, f.ext)
		for pg := 0; pg < f.filled; pg++ {
			l.bts[f.ext.die].SetOwner(f.ext.local, pg, f.first+int64(pg))
		}
		pos += int64(f.filled)
		if f.seq > maxSeq {
			maxSeq = f.seq
		}
	}
	l.next = pos
	l.seq = maxSeq + uint64(l.ppb()) // stay above every scanned page seq
	return l, nil
}

func seqScanLess(a, b seqScan) bool {
	if a.first != b.first {
		return a.first < b.first
	}
	return a.seq < b.seq
}
