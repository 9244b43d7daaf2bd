package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// WAL on a native append-only flash log region.
//
// The page-volume WAL (wal.go) treats the log as a rewritable page
// space: page 0 is an anchor it overwrites at every checkpoint, the
// partially-filled tail page is rewritten by every flush, and old
// stream pages are overwritten when the log wraps. On flash, every one
// of those rewrites is an out-of-place program plus eventual GC copy
// work — the log stream is the hottest "data" on the device.
//
// The append-only mode removes all of it. Hosted on an AppendLog (a
// region the DBMS manages with block-granular sequential mapping), the
// WAL only ever appends:
//
//   - Each flush packs the pending stream bytes into fresh,
//     self-describing pages {startLSN, used | payload}. Nothing is
//     rewritten; a partially filled page is simply followed by the next
//     flush's page.
//   - Checkpoint anchors are appended as flagged pages instead of
//     overwriting a fixed anchor slot; recovery takes the newest one
//     found in the scan.
//   - Log reclamation is truncation: after anchoring, every page below
//     the one containing the checkpoint LSN is dead, and the region
//     erases the fully-dead blocks. No copies, no mapping-table
//     traffic.
//
// Restart first rebuilds the region's extent list from flash OOBs, then
// ReadAnchor scans the retained window once, caching the stream pages
// so RecoverScan replays without re-reading.

// AppendLog is the storage engine's view of a native append-only log
// region: positions are page-granular, appends only move forward, and
// reclamation is truncation. Implemented by FlashLog over ftl.SeqLog.
type AppendLog interface {
	// PageSize returns the page size in bytes.
	PageSize() int
	// Pages returns the region capacity in pages.
	Pages() int64
	// Append stores data as the next page, returning its position.
	// A full region fails with ErrLogFull. data is copied before Append
	// returns; the caller may reuse it at once.
	Append(ctx *IOCtx, data []byte) (int64, error)
	// ReadAt reads the page at pos (must be within Bounds).
	ReadAt(ctx *IOCtx, pos int64, buf []byte) error
	// Truncate declares positions below keepFrom dead, releasing
	// fully-dead blocks.
	Truncate(ctx *IOCtx, keepFrom int64) error
	// Bounds returns the retained window [head, next).
	Bounds() (head, next int64)
}

// Flash log page layout: u32 magic | u32 flags | u64 startLSN | u32 used
// | payload. Anchor pages carry the checkpoint LSN in startLSN and no
// payload.
const (
	flashLogHeader = 20
	flashLogMagic  = 0x574C4F47 // "WLOG"
	flashLogAnchor = 1 << 0
)

// flashPageRef locates one flushed stream page (for truncation).
type flashPageRef struct {
	pos int64
	lsn uint64 // startLSN of the page
}

// flashScanPage is one stream page cached by the recovery scan.
type flashScanPage struct {
	pos  int64
	lsn  uint64
	data []byte // payload (used bytes only)
}

// NewWALOnLog creates a WAL hosted on a native append-only log region.
func NewWALOnLog(al AppendLog) *WAL {
	return &WAL{alog: al, payload: al.PageSize() - flashLogHeader, flushBuf: make([]byte, al.PageSize())}
}

// flashCapacity is the stream byte capacity of the log region.
func (w *WAL) flashCapacity() uint64 {
	return uint64(w.alog.Pages()) * uint64(w.payload)
}

// flashSinceAnchor measures log consumption in page units (partial
// flush pages consume a whole page each, so byte math would
// underestimate; checkpoint scheduling needs the real page count).
func (w *WAL) flashSinceAnchor() uint64 {
	_, next := w.alog.Bounds()
	if next <= w.anchorPos {
		return 0
	}
	return uint64(next-w.anchorPos) * uint64(w.payload)
}

// writeFlashPages persists the stream bytes [durable, target) as fresh
// self-describing pages.
func (w *WAL) writeFlashPages(ctx *IOCtx, target uint64) error {
	if target <= w.durable {
		return nil
	}
	buf := w.flushBuf
	for start := w.durable; start < target; {
		n := uint64(w.payload)
		if start+n > target {
			n = target - start
		}
		if start < w.tailLSN {
			return fmt.Errorf("storage: wal tail lost lsn %d (tail starts %d)", start, w.tailLSN)
		}
		off := start - w.tailLSN
		clear(buf)
		binary.LittleEndian.PutUint32(buf[0:], flashLogMagic)
		binary.LittleEndian.PutUint32(buf[4:], 0)
		binary.LittleEndian.PutUint64(buf[8:], start)
		binary.LittleEndian.PutUint32(buf[16:], uint32(n))
		copy(buf[flashLogHeader:], w.tail[off:off+n])
		pos, err := w.alog.Append(ctx, buf)
		if err != nil {
			return err
		}
		w.pageIdx = append(w.pageIdx, flashPageRef{pos: pos, lsn: start})
		w.PagesOut++
		start += n
	}
	w.Flushes++
	w.durable = target
	// Append-only pages are never rewritten, so no tail bytes need to be
	// retained below durable.
	w.dropTailBelow(w.durable)
	return nil
}

// writeFlashAnchor appends an anchor page and truncates the stream
// below the recovery horizon — the region's whole "garbage
// collection". keepLSN <= checkpointLSN is the oldest LSN recovery can
// still ask for (fuzzy-checkpoint redo bound / oldest active
// transaction).
func (w *WAL) writeFlashAnchor(ctx *IOCtx, checkpointLSN, keepLSN uint64) error {
	buf := make([]byte, w.alog.PageSize())
	binary.LittleEndian.PutUint32(buf[0:], flashLogMagic)
	binary.LittleEndian.PutUint32(buf[4:], flashLogAnchor)
	binary.LittleEndian.PutUint64(buf[8:], checkpointLSN)
	pos, err := w.alog.Append(ctx, buf)
	if err != nil {
		return err
	}
	w.anchor = checkpointLSN
	w.anchorPos = pos
	// Recovery reads from the page containing keepLSN: the last flushed
	// page whose startLSN <= keepLSN. Everything before it is dead.
	keep := pos
	for i := len(w.pageIdx) - 1; i >= 0; i-- {
		if w.pageIdx[i].lsn <= keepLSN {
			keep = w.pageIdx[i].pos
			break
		}
	}
	w.pageIdx = slices.DeleteFunc(w.pageIdx, func(ref flashPageRef) bool { return ref.pos < keep })
	return w.alog.Truncate(ctx, keep)
}

// readFlashAnchor scans the retained log window once: it finds the
// newest anchor, rebuilds the flushed-page index (for later
// truncation), and caches the stream pages for RecoverScan.
func (w *WAL) readFlashAnchor(ctx *IOCtx) (uint64, error) {
	head, next := w.alog.Bounds()
	w.scanPages = nil
	w.pageIdx = nil
	w.anchorPos = head
	anchor := uint64(0)
	buf := make([]byte, w.alog.PageSize())
	for pos := head; pos < next; pos++ {
		if err := w.alog.ReadAt(ctx, pos, buf); err != nil {
			return 0, err
		}
		if binary.LittleEndian.Uint32(buf[0:]) != flashLogMagic {
			continue // unformatted page (fresh region)
		}
		flags := binary.LittleEndian.Uint32(buf[4:])
		startLSN := binary.LittleEndian.Uint64(buf[8:])
		if flags&flashLogAnchor != 0 {
			if startLSN >= anchor {
				anchor = startLSN
				w.anchorPos = pos
			}
			continue
		}
		used := binary.LittleEndian.Uint32(buf[16:])
		if used == 0 || int(used) > w.payload {
			continue
		}
		w.scanPages = append(w.scanPages, flashScanPage{
			pos: pos, lsn: startLSN,
			data: append([]byte(nil), buf[flashLogHeader:flashLogHeader+used]...),
		})
		w.pageIdx = append(w.pageIdx, flashPageRef{pos: pos, lsn: startLSN})
	}
	w.anchor = anchor
	return anchor, nil
}

// flashRecoverScan reassembles the stream from the cached scan and
// decodes records from lsn to the stream end.
func (w *WAL) flashRecoverScan(ctx *IOCtx, lsn uint64) ([]*LogRecord, uint64, error) {
	if w.scanPages == nil {
		if _, err := w.readFlashAnchor(ctx); err != nil {
			return nil, 0, err
		}
	}
	// Reassemble the stream in position (append) order. A flush that
	// failed mid-loop leaves orphan pages whose LSNs a later retry
	// re-appended, so a page may re-cover bytes an earlier page already
	// supplied: the later (newer) copy wins — it is spliced in at its
	// own offset and the stream re-extends from there.
	var stream []byte
	var streamStart uint64
	found := false
scan:
	for _, p := range w.scanPages {
		covers := lsn >= p.lsn && lsn < p.lsn+uint64(len(p.data))
		switch {
		case !found:
			if covers {
				found = true
				streamStart = p.lsn
				stream = append(stream, p.data...)
			}
		case p.lsn < streamStart:
			// A retry restarted below our scan start; re-anchor on the
			// newer copy when it covers the requested LSN.
			if covers {
				streamStart = p.lsn
				stream = append(stream[:0], p.data...)
			}
		case p.lsn <= streamStart+uint64(len(stream)):
			// Overlapping or contiguous: splice the newer bytes in.
			stream = append(stream[:p.lsn-streamStart], p.data...)
		default:
			break scan // stream gap: nothing durable follows
		}
	}
	if !found {
		// lsn is at (or past) the stream end: nothing to replay.
		return nil, lsn, nil
	}
	recs, end := decodeStream(stream, streamStart, lsn)
	return recs, end, nil
}
