package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
)

// Write-ahead log. Records form a byte stream; LSNs are stream byte
// offsets. The stream lives on an append-only log (AppendLog,
// wal_flash.go) in one format: each flush appends the pending bytes as
// fresh self-describing pages, a checkpoint appends an anchor page and
// truncates the log below the recovery horizon, and restart finds the
// newest anchor by scanning the retained window. No page is rewritten.
//
// Record layout: u32 len | u8 type | u64 lsn | u64 txid | body.
// Records may span pages.
//
// Transaction id 0 is the system transaction: its records are redo-only
// (never undone) — used for structural changes (page formats, B-tree
// splits) and compensation records written during rollback.

// RecType enumerates log record types.
type RecType uint8

// Log record types.
const (
	RecBegin RecType = iota + 1
	RecCommit
	RecAbort
	RecCheckpoint
	RecHeapInsert // page, slot, img        — undo: delete slot
	RecHeapUpdate // page, slot, before, after
	RecHeapDelete // page, slot, before     — undo: reinsert at slot
	RecPageImage  // page, full after image — redo-only
	RecIdxInsert  // idx, page, key, rid    — undo: logical delete
	RecIdxDelete  // idx, page, key, rid    — undo: logical insert
)

// SystemTx is the reserved redo-only transaction id.
const SystemTx uint64 = 0

// LogRecord is a decoded log record.
type LogRecord struct {
	Type   RecType
	LSN    uint64
	Tx     uint64
	Page   PageID
	Slot   int
	Before []byte
	After  []byte
	Idx    uint32
	Key    int64
	RID    RID
	// Checkpoint payload: active transactions and their first LSN.
	Active map[uint64]uint64
}

// RID identifies a heap record.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders "page.slot".
func (r RID) String() string { return fmt.Sprintf("%d.%d", r.Page, r.Slot) }

// Log page layout: u32 magic | u32 flags | u64 startLSN | u32 used |
// payload. A stream page carries used payload bytes of the stream from
// startLSN on. An anchor page (flag logAnchor) carries the checkpoint
// LSN in startLSN and, as its payload, the u64 log position the
// checkpoint truncated the log to.
const (
	logHeader = 20
	logMagic  = 0x574C4F47 // "WLOG"
	logAnchor = 1 << 0
)

// logPageRef locates one flushed stream page (for truncation).
type logPageRef struct {
	pos int64
	lsn uint64 // startLSN of the page
}

// scanPage is one stream page cached by the recovery scan.
type scanPage struct {
	pos  int64
	lsn  uint64
	data []byte // payload (used bytes only)
}

// WAL is the write-ahead log manager.
type WAL struct {
	log     AppendLog
	payload int
	// tail holds unflushed stream bytes starting at tailLSN.
	tail    []byte
	tailLSN uint64
	nextLSN uint64
	durable uint64

	flushing bool
	flushed  sim.WaitQueue // committers waiting for the flush in flight to end
	lead     IOCtx         // the leader's descriptor when its class is not the flush's
	// flushBuf is the one page every flush formats into. One is enough:
	// flushing admits a single flusher at a time, and the log copies the
	// page before its append returns.
	flushBuf []byte
	// anchor is the LSN the last checkpoint anchored and anchorPos the
	// log position of its anchor page.
	anchor    uint64
	anchorPos int64
	// anchored holds committers back while the log is three quarters
	// full (Engine.awaitRoom); the next anchor releases them.
	anchored sim.WaitQueue
	ckpt     sim.WaitQueue // the idle checkpointer (Engine.StartCheckpointer)
	// pageIdx lists the flushed live stream pages; scanPages caches the
	// stream pages ReadAnchor found, for RecoverScan.
	pageIdx   []logPageRef
	scanPages []scanPage

	// Stats.
	Appends     int64
	Flushes     int64
	PagesOut    int64
	BytesLogged int64
}

// NewWAL creates a WAL on log.
func NewWAL(log AppendLog) *WAL {
	return &WAL{log: log, payload: log.PageSize() - logHeader, flushBuf: make([]byte, log.PageSize())}
}

// NextLSN returns the LSN the next record will get.
func (w *WAL) NextLSN() uint64 { return w.nextLSN }

// Capacity returns the log's capacity in payload bytes; SinceAnchor
// reaching it means the log is full.
func (w *WAL) Capacity() uint64 {
	return uint64(w.log.Pages()) * uint64(w.payload)
}

// SinceAnchor returns the log consumed since the last checkpoint anchor
// — checkpoint schedulers compare it to Capacity. It counts pages
// (partial flush pages count whole), so the ratio against Capacity
// stays honest.
func (w *WAL) SinceAnchor() uint64 {
	_, next := w.log.Bounds()
	if next <= w.anchorPos {
		return 0
	}
	return uint64(next-w.anchorPos) * uint64(w.payload)
}

// Append encodes r, assigns it the next LSN and buffers it. The record
// is encoded directly into the buffered tail — no intermediate slice —
// before Append returns, and the WAL retains neither r nor its
// Before/After slices: callers log live page images and record buffers
// without copying them first.
func (w *WAL) Append(r *LogRecord) uint64 {
	r.LSN = w.nextLSN
	before := len(w.tail)
	w.tail = encodeRecordTo(w.tail, r)
	n := len(w.tail) - before
	w.nextLSN += uint64(n)
	w.Appends++
	w.BytesLogged += int64(n)
	return r.LSN
}

// Flush makes every record with LSN < upTo durable. Concurrent callers
// coalesce: if another flush already covered upTo, it returns at once.
//
// Flush is the commit path: it always dispatches in the WAL class
// (keeping the caller's stream tag). The log is shared infrastructure —
// a group-commit flush covers other transactions' records, so letting a
// low-priority committer's flush queue at its own class would block
// high-priority commits behind it (priority inversion through the
// shared log). Background-induced flushes (write-back, checkpoints) use
// flushBg instead, which keeps the caller's declared class.
func (w *WAL) Flush(ctx *IOCtx, upTo uint64) error {
	return w.flush(ctx, upTo, ioreq.ClassWAL)
}

// flushBg is Flush for background callers: its pages dispatch at the
// caller's background log class (bgLogClass).
//
// It is unexported so that no other package can flush the shared log
// below the WAL class. Its only callers are the buffer pool's write-back
// (BufferPool.writeFrame, WAL-before-data) and the checkpointer
// (Engine.Checkpoint); TestFlushBgCallSites pins that list.
func (w *WAL) flushBg(ctx *IOCtx, upTo uint64) error {
	return w.flush(ctx, upTo, bgLogClass(ctx.Class))
}

// bgLogClass is the class of a log write a background caller induces —
// a flushBg flush or a checkpoint anchor. A caller that declares a class
// — a db-writer or the checkpointer — keeps it, so background-induced
// log traffic does not outrank commit appends; an undeclared caller gets
// the WAL class.
//
// Log writes never run at maintenance priority, though: any flush can
// end up covering other streams' records (the flushing flag serializes
// concurrent flushers), so classes below the program tier (prefetch,
// GC — e.g. a low-priority tenant's foreground eviction flushing the
// WAL ahead of the victim write) are clamped up to ClassProgram. That
// bounds the shared-log inversion window at one background-class
// flush instead of one maintenance-class flush.
func bgLogClass(declared ioreq.Class) ioreq.Class {
	if declared == ioreq.ClassDefault {
		return ioreq.ClassWAL
	}
	return min(declared, ioreq.ClassProgram)
}

// flush makes the log durable to upTo, writing any pages in class cl.
func (w *WAL) flush(ctx *IOCtx, upTo uint64, cl ioreq.Class) error {
	if sp := ctx.Span; sp != nil {
		// Telemetry: the whole flush — group-commit waits behind another
		// flusher included — is the span's WAL stage; page writes nest
		// the volume stage inside.
		wait := ctx.W
		sp.Enter(ioreq.StageWAL, wait.Now())
		err := w.doFlush(ctx, upTo, cl)
		sp.Exit(wait.Now())
		return err
	}
	return w.doFlush(ctx, upTo, cl)
}

func (w *WAL) doFlush(ctx *IOCtx, upTo uint64, cl ioreq.Class) error {
	if upTo > w.nextLSN {
		upTo = w.nextLSN
	}
	for w.durable < upTo {
		if w.flushing {
			// Another process is flushing: group commit behind it, woken
			// when it ends.
			w.flushed.Wait(ctx.W, 0)
			continue
		}
		w.flushing = true
		// Snapshot the target: flush everything buffered right now
		// (group commit: waiters behind us get covered too).
		target := w.nextLSN
		lead := ctx
		if ctx.Class != cl {
			// flushing admits one leader, so one descriptor serves all.
			w.lead = *ctx
			w.lead.Class = cl
			lead = &w.lead
		}
		err := w.writePages(lead, target)
		w.flushing = false
		w.flushed.Wake()
		if err != nil {
			return err
		}
	}
	return nil
}

// writePages persists the stream bytes [durable, target) as fresh
// self-describing pages.
func (w *WAL) writePages(ctx *IOCtx, target uint64) error {
	if target <= w.durable {
		return nil
	}
	buf := w.flushBuf
	for start := w.durable; start < target; {
		if head, next := w.log.Bounds(); next-head >= w.log.Pages()-1 {
			// The last free page is the next anchor's: without it the
			// log could never be reclaimed.
			return fmt.Errorf("%w: lsn %d would take the next anchor's page", ErrLogFull, start)
		}
		n := uint64(w.payload)
		if start+n > target {
			n = target - start
		}
		if start < w.tailLSN {
			return fmt.Errorf("storage: wal tail lost lsn %d (tail starts %d)", start, w.tailLSN)
		}
		off := start - w.tailLSN
		clear(buf)
		binary.LittleEndian.PutUint32(buf[0:], logMagic)
		binary.LittleEndian.PutUint32(buf[4:], 0)
		binary.LittleEndian.PutUint64(buf[8:], start)
		binary.LittleEndian.PutUint32(buf[16:], uint32(n))
		copy(buf[logHeader:], w.tail[off:off+n])
		pos, err := w.log.Append(ctx, buf)
		if err != nil {
			return err
		}
		w.pageIdx = append(w.pageIdx, logPageRef{pos: pos, lsn: start})
		w.PagesOut++
		start += n
	}
	w.Flushes++
	w.durable = target
	// Pages are never rewritten, so no tail bytes need to be retained
	// below durable.
	w.dropTailBelow(w.durable)
	return nil
}

// dropTailBelow discards the tail bytes below lsn, compacting in place so
// the tail keeps its capacity and Append does not re-grow it after every
// flush. Processes that appended while the flusher was parked in a page
// write only extended the tail, so the surviving bytes move as one block.
func (w *WAL) dropTailBelow(lsn uint64) {
	if lsn > w.tailLSN {
		n := copy(w.tail, w.tail[lsn-w.tailLSN:])
		w.tail = w.tail[:n]
		w.tailLSN = lsn
	}
}

// WriteAnchor records the checkpoint LSN as an appended anchor page and
// truncates the log below the page holding it. When recovery may need
// earlier records (fuzzy checkpoints with dirty pages or active
// transactions), use WriteAnchorKeep.
func (w *WAL) WriteAnchor(ctx *IOCtx, checkpointLSN uint64) error {
	return w.WriteAnchorKeep(ctx, checkpointLSN, checkpointLSN)
}

// WriteAnchorKeep appends the checkpoint anchor and truncates the log
// below the recovery horizon — the log's whole garbage collection.
// Every record with LSN >= keepLSN stays readable; keepLSN is the oldest
// LSN recovery can still ask for: min(redo start bound, oldest active
// transaction's first LSN).
//
// The anchor page dispatches at the caller's background log class
// (bgLogClass).
func (w *WAL) WriteAnchorKeep(ctx *IOCtx, checkpointLSN, keepLSN uint64) error {
	defer w.anchored.Wake()
	if cl := bgLogClass(ctx.Class); cl != ctx.Class {
		ctx = ctx.WithClass(cl) // one derived context per checkpoint
	}
	keepLSN = min(keepLSN, checkpointLSN)
	// Recovery reads from the page containing keepLSN: the last flushed
	// page whose startLSN <= keepLSN. Everything before it is dead; with
	// no such page, only the anchor itself stays.
	_, next := w.log.Bounds()
	keep := next
	for i := len(w.pageIdx) - 1; i >= 0; i-- {
		if w.pageIdx[i].lsn <= keepLSN {
			keep = w.pageIdx[i].pos
			break
		}
	}
	buf := make([]byte, w.log.PageSize())
	binary.LittleEndian.PutUint32(buf[0:], logMagic)
	binary.LittleEndian.PutUint32(buf[4:], logAnchor)
	binary.LittleEndian.PutUint64(buf[8:], checkpointLSN)
	binary.LittleEndian.PutUint64(buf[logHeader:], uint64(keep))
	pos, err := w.log.Append(ctx, buf)
	if err != nil {
		return err
	}
	w.anchor = checkpointLSN
	w.anchorPos = pos
	if keep == next {
		keep = pos
	}
	w.pageIdx = slices.DeleteFunc(w.pageIdx, func(ref logPageRef) bool { return ref.pos < keep })
	return w.log.Truncate(ctx, keep)
}

// tight reports whether three quarters of the log's pages are held. The
// log holds every page back to the recovery horizon, which precedes the
// anchor by what the checkpoint's own flush let the log grow.
func (w *WAL) tight() bool {
	head, next := w.log.Bounds()
	return uint64(next-head)*4 >= uint64(w.log.Pages())*3
}

// pins reports whether a record at lsn holds the log's head: a
// checkpoint keeps the page holding the oldest record recovery needs,
// so while that is the head page it truncates nothing.
func (w *WAL) pins(lsn uint64) bool {
	return len(w.pageIdx) < 2 || w.pageIdx[1].lsn > lsn
}

// ReadAnchor returns the last checkpoint LSN (0 on a fresh log). It
// scans the log once: it finds the newest anchor, re-applies its
// truncation — a restart may bring back pages truncated before it — and
// keeps the live stream pages, in position order, for RecoverScan and
// for later truncation. Pages a scan passes from below the window are
// older than its newest anchor, so they never win.
func (w *WAL) ReadAnchor(ctx *IOCtx) (uint64, error) {
	w.anchor, w.anchorPos, w.scanPages = 0, -1, nil
	keep := int64(0)
	err := w.log.Scan(ctx, func(pos int64, buf []byte) error {
		if binary.LittleEndian.Uint32(buf[0:]) != logMagic {
			return nil // unformatted page (fresh region)
		}
		startLSN := binary.LittleEndian.Uint64(buf[8:])
		if binary.LittleEndian.Uint32(buf[4:])&logAnchor != 0 {
			if startLSN > w.anchor || startLSN == w.anchor && pos > w.anchorPos {
				w.anchor, w.anchorPos = startLSN, pos
				keep = int64(binary.LittleEndian.Uint64(buf[logHeader:]))
			}
		} else if used := binary.LittleEndian.Uint32(buf[16:]); used > 0 && int(used) <= w.payload {
			w.scanPages = append(w.scanPages, scanPage{
				pos: pos, lsn: startLSN,
				data: append([]byte(nil), buf[logHeader:logHeader+used]...),
			})
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	head, _ := w.log.Bounds()
	w.anchorPos = max(w.anchorPos, head)
	if keep > head {
		if err := w.log.Truncate(ctx, keep); err != nil {
			return 0, err
		}
	}
	keep = max(keep, head)
	w.scanPages = slices.DeleteFunc(w.scanPages, func(p scanPage) bool { return p.pos < keep })
	slices.SortFunc(w.scanPages, func(a, b scanPage) int { return cmp.Compare(a.pos, b.pos) })
	w.pageIdx = w.pageIdx[:0]
	for _, p := range w.scanPages {
		w.pageIdx = append(w.pageIdx, logPageRef{pos: p.pos, lsn: p.lsn})
	}
	return w.anchor, nil
}

// RecoverScan reads records from lsn, returning them together with the
// stream end (the LSN right after the last good record), from the
// stream pages ReadAnchor cached.
func (w *WAL) RecoverScan(ctx *IOCtx, lsn uint64) ([]*LogRecord, uint64, error) {
	if w.scanPages == nil {
		if _, err := w.ReadAnchor(ctx); err != nil {
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

// decodeStream decodes the records of stream (whose first byte is stream
// offset streamStart) from lsn until the first torn, stale or truncated
// one, returning them with the LSN right after the last good record.
func decodeStream(stream []byte, streamStart, lsn uint64) ([]*LogRecord, uint64) {
	var recs []*LogRecord
	pos := lsn - streamStart
	for {
		r := &LogRecord{}
		n := decodeRecordInto(r, stream[min(pos, uint64(len(stream))):], streamStart+pos)
		if n == 0 {
			return recs, streamStart + pos
		}
		recs = append(recs, r)
		pos += n
	}
}

// Adopt resumes the log at end (the value RecoverScan returned): new
// records append right after the recovered stream. Pages are
// self-describing, so no partial-page bytes need reconstructing.
func (w *WAL) Adopt(end uint64) {
	w.nextLSN, w.durable, w.tailLSN = end, end, end
	w.tail = nil
	w.scanPages = nil
}

// --- record encoding ---

// recEnc is the zero-copy encode cursor: methods on a struct instead of
// closures over a local slice, because closures capturing the slice
// force it (and the capture block) onto the heap — the allocations the
// storage alloc microbenchmarks flag on the Append hot path.
type recEnc struct{ b []byte }

func (e *recEnc) u8(v byte)    { e.b = append(e.b, v) }
func (e *recEnc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *recEnc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *recEnc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *recEnc) bytes(p []byte) {
	e.u16(uint16(len(p)))
	e.b = append(e.b, p...)
}

// encodeRecordTo appends r's encoding to dst and returns the extended
// slice — zero allocations once dst has capacity, so Append encodes
// straight into the buffered tail. The leading 4-byte total length is
// backfilled once the body is down.
func encodeRecordTo(dst []byte, r *LogRecord) []byte {
	e := recEnc{b: dst}
	start := len(dst)
	e.u32(0) // total length, backfilled below
	e.u8(byte(r.Type))
	e.u64(r.LSN)
	e.u64(r.Tx)
	switch r.Type {
	case RecBegin, RecCommit, RecAbort:
	case RecHeapInsert:
		e.u64(uint64(r.Page))
		e.u16(uint16(r.Slot))
		e.bytes(r.After)
	case RecHeapUpdate:
		e.u64(uint64(r.Page))
		e.u16(uint16(r.Slot))
		e.bytes(r.Before)
		e.bytes(r.After)
	case RecHeapDelete:
		e.u64(uint64(r.Page))
		e.u16(uint16(r.Slot))
		e.bytes(r.Before)
	case RecPageImage:
		e.u64(uint64(r.Page))
		e.u32(uint32(len(r.After)))
		e.b = append(e.b, r.After...)
	case RecIdxInsert, RecIdxDelete:
		e.u32(r.Idx)
		e.u64(uint64(r.Page))
		e.u64(uint64(r.Key))
		e.u64(uint64(r.RID.Page))
		e.u16(r.RID.Slot)
	case RecCheckpoint:
		e.u64(uint64(r.Key)) // redo start bound (fuzzy checkpoint)
		e.u32(uint32(len(r.Active)))
		// Deterministic order is unnecessary for correctness but keeps
		// log bytes reproducible: emit sorted by txid.
		for _, tx := range slices.Sorted(maps.Keys(r.Active)) {
			e.u64(tx)
			e.u64(r.Active[tx])
		}
	}
	binary.LittleEndian.PutUint32(e.b[start:], uint32(len(e.b)-start))
	return e.b
}

// recDec is the decode cursor mirroring recEnc. A read past the end of
// the record marks it short instead of running into the next one.
type recDec struct {
	b     []byte
	pos   int
	short bool
}

func (d *recDec) u16() uint16 { return uint16(d.uint(2)) }
func (d *recDec) u32() uint32 { return uint32(d.uint(4)) }
func (d *recDec) u64() uint64 { return d.uint(8) }

// uint reads an n-byte little-endian integer (0 past the end).
func (d *recDec) uint(n int) (v uint64) {
	for i, c := range d.raw(n) {
		v |= uint64(c) << (8 * i)
	}
	return v
}

// raw returns the next n stream bytes as a capacity-clamped subslice —
// an alias, not a copy — or nil past the end of the record. The
// recovered stream is assembled once and never rewritten, so decoded
// records may reference it directly; the three-index slice keeps a
// caller's append from growing into the following record's bytes.
func (d *recDec) raw(n int) []byte {
	if n > len(d.b)-d.pos {
		d.short = true
		return nil
	}
	v := d.b[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return v
}

func (d *recDec) bytes() []byte { return d.raw(int(d.u16())) }

// decodeRecordInto parses one record at the head of b (whose stream
// offset is lsn) into r, returning the encoded length — 0 if b is
// empty, truncated or corrupt (r is then partially overwritten).
// Payload fields (Before/After) alias b.
func decodeRecordInto(r *LogRecord, b []byte, lsn uint64) uint64 {
	if len(b) < 21 {
		return 0
	}
	total := binary.LittleEndian.Uint32(b)
	if total < 21 || int(total) > len(b) {
		return 0
	}
	*r = LogRecord{
		Type: RecType(b[4]),
		LSN:  binary.LittleEndian.Uint64(b[5:]),
		Tx:   binary.LittleEndian.Uint64(b[13:]),
	}
	if r.LSN != lsn {
		return 0 // stale bytes from a previous wrap
	}
	d := recDec{b: b[21:total]}
	switch r.Type {
	case RecBegin, RecCommit, RecAbort:
	case RecHeapInsert:
		r.Page = PageID(d.u64())
		r.Slot = int(d.u16())
		r.After = d.bytes()
	case RecHeapUpdate:
		r.Page = PageID(d.u64())
		r.Slot = int(d.u16())
		r.Before = d.bytes()
		r.After = d.bytes()
	case RecHeapDelete:
		r.Page = PageID(d.u64())
		r.Slot = int(d.u16())
		r.Before = d.bytes()
	case RecPageImage:
		r.Page = PageID(d.u64())
		r.After = d.raw(int(d.u32()))
	case RecIdxInsert, RecIdxDelete:
		r.Idx = d.u32()
		r.Page = PageID(d.u64())
		r.Key = int64(d.u64())
		r.RID = RID{Page: PageID(d.u64()), Slot: d.u16()}
	case RecCheckpoint:
		r.Key = int64(d.u64())
		n := int(d.u32())
		if n > (len(d.b)-d.pos)/16 {
			return 0
		}
		r.Active = make(map[uint64]uint64, n)
		for i := 0; i < n; i++ {
			tx := d.u64()
			r.Active[tx] = d.u64()
		}
	default:
		return 0
	}
	if d.short {
		return 0
	}
	return uint64(total)
}

// ErrLogFull reports log-volume exhaustion between checkpoints.
var ErrLogFull = errors.New("storage: log volume wrapped into live records; checkpoint more often")
