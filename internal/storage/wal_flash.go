package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The WAL's medium: an append-only log.
//
// A rewritable log — a fixed anchor page overwritten at every
// checkpoint, a tail page rewritten by every flush, old pages overwritten
// when the log wraps — turns every one of those rewrites into an
// out-of-place program plus eventual GC copy work on flash. The WAL
// therefore only ever appends to an AppendLog:
//
//   - Each flush packs the pending stream bytes into fresh,
//     self-describing pages (wal.go's page layout). Nothing is
//     rewritten; a partially filled page is simply followed by the next
//     flush's page.
//   - Checkpoint anchors are appended as flagged pages; recovery takes
//     the newest one found in the scan.
//   - Log reclamation is truncation below the recovery horizon. No
//     copies, no mapping-table traffic.
//
// Two media implement it. FlashLog is a native sequential log region
// (ftl.SeqLog): block-granular mapping, and truncation erases the
// fully-dead blocks. VolumeLog is a ring over any page volume — the
// memory log of the stacks without a flash log, or a window of a
// single-policy NoFTL volume: truncation deallocates the dead pages, so
// on a NoFTL volume the GC drops them without copying.

// AppendLog is the storage engine's view of an append-only log:
// positions are page-granular, appends only move forward, and
// reclamation is truncation. Implemented by FlashLog and VolumeLog.
type AppendLog interface {
	// PageSize returns the page size in bytes.
	PageSize() int
	// Pages returns the log capacity in pages.
	Pages() int64
	// Append stores data as the next page, returning its position.
	// A full log fails with ErrLogFull. data is copied before Append
	// returns; the caller may reuse it at once.
	Append(ctx *IOCtx, data []byte) (int64, error)
	// Scan reads the retained window once, calling fn with each page's
	// position and contents (valid during the call only) in an order of
	// the log's choosing. A reopened log may pass pages below Bounds'
	// head and is only exact about Bounds after its first Scan.
	Scan(ctx *IOCtx, fn func(pos int64, page []byte) error) error
	// Truncate declares positions below keepFrom dead and releases
	// their space.
	Truncate(ctx *IOCtx, keepFrom int64) error
	// Bounds returns the retained window [head, next).
	Bounds() (head, next int64)
}

// ringHeader is the per-page header of a VolumeLog: the page's position
// plus one, so a zeroed page reads as an empty slot.
const ringHeader = 8

// VolumeLog is an AppendLog over a page volume used as a ring: position
// p lives on page p mod Pages(). The first Scan rebuilds the window from
// the positions the pages carry, so a restart needs nothing else.
type VolumeLog struct {
	vol        Volume
	head, next int64
	scanned    bool // the window has been rebuilt: Scan reads it alone
	// spare holds page frames for the volume calls. A call owns its frame
	// until it returns (a volume may read the data after parking), so a
	// flush's page write and a checkpoint's anchor write in flight
	// together each take one; steady state allocates nothing.
	spare [][]byte
}

// NewVolumeLog returns the ring on vol. It reads nothing: call Scan
// before the first Append.
func NewVolumeLog(vol Volume) *VolumeLog { return &VolumeLog{vol: vol} }

// Scan implements AppendLog. The first Scan reads every slot and passes
// on each page with a valid header; it then rebuilds the window
// [head, next): next follows the highest position found, and head is
// the lowest one found, but no more than a lap below it. The window may
// hold holes — slots without a valid header, or holding an older lap's
// position — where an append was still in flight at a crash while a
// later one finished, or failed without giving its position back.
// Pages below head (older laps) and stale pages inside the window —
// truncated before a restart that noftl.Rebuild brought back — are the
// WAL's to drop: it re-applies the newest anchor's truncation. Later
// scans read the window alone and skip its holes.
func (r *VolumeLog) Scan(ctx *IOCtx, fn func(int64, []byte) error) error {
	n := r.vol.Pages()
	page := r.frame()
	defer r.release(page)
	first, last := r.head, r.next
	if !r.scanned {
		first, last = 0, n
	}
	top, low := int64(-1), int64(math.MaxInt64)
	for i := first; i < last; i++ {
		if err := r.vol.ReadPage(ctx, PageID(i%n), page); err != nil {
			return err
		}
		pos := int64(binary.LittleEndian.Uint64(page)) - 1
		if pos < 0 || pos%n != i%n || r.scanned && pos != i {
			continue // an empty slot, a hole or an older lap
		}
		top, low = max(top, pos), min(low, pos)
		if err := fn(pos, page[ringHeader:]); err != nil {
			return err
		}
	}
	if !r.scanned {
		r.next, r.scanned = top+1, true
		r.head = max(min(low, r.next), r.next-n)
	}
	return nil
}

func (r *VolumeLog) frame() []byte {
	if n := len(r.spare); n > 0 {
		b := r.spare[n-1]
		r.spare = r.spare[:n-1]
		return b
	}
	return make([]byte, r.vol.PageSize())
}

func (r *VolumeLog) release(b []byte) { r.spare = append(r.spare, b) }

// PageSize implements AppendLog: a volume page less the position header.
func (r *VolumeLog) PageSize() int { return r.vol.PageSize() - ringHeader }

// Pages implements AppendLog.
func (r *VolumeLog) Pages() int64 { return r.vol.Pages() }

// Append implements AppendLog. It never overwrites the live window: a
// full ring fails with ErrLogFull.
func (r *VolumeLog) Append(ctx *IOCtx, data []byte) (int64, error) {
	n := r.vol.Pages()
	if r.next-r.head == n {
		return 0, fmt.Errorf("%w: %d live pages fill the ring", ErrLogFull, n)
	}
	pos := r.next
	r.next++
	buf := r.frame()
	defer r.release(buf)
	binary.LittleEndian.PutUint64(buf, uint64(pos+1))
	clear(buf[ringHeader+copy(buf[ringHeader:], data):])
	// Log pages are a sequential short-lived stream, not hot data:
	// volumes with placement support keep them on their own frontier.
	if err := r.vol.WritePage(ctx, PageID(pos%n), buf, HintLog); err != nil {
		if r.next == pos+1 {
			r.next = pos // nothing appended behind it: give the position back
		}
		return 0, err
	}
	return pos, nil
}

// Truncate implements AppendLog: the dead pages are deallocated.
func (r *VolumeLog) Truncate(_ *IOCtx, keepFrom int64) error {
	keepFrom = min(keepFrom, r.next)
	for ; r.head < keepFrom; r.head++ {
		r.vol.Deallocate(PageID(r.head % r.vol.Pages()))
	}
	return nil
}

// Bounds implements AppendLog.
func (r *VolumeLog) Bounds() (int64, int64) { return r.head, r.next }
