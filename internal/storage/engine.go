package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// EngineConfig tunes the storage engine.
type EngineConfig struct {
	// BufferFrames is the buffer-pool size in pages. Default 256.
	BufferFrames int
	// DeltaWrites enables the in-place-append flush path: buffer-pool
	// flushes whose differential is small go out as delta appends when
	// the data volume supports them (see BufferPool.EnableDeltaWrites).
	// Ignored for volumes without the capability.
	DeltaWrites bool
	// ScanResistant segments the buffer-pool clock 2Q/CAR-style so
	// single-touch scan traffic cannot evict the re-referenced OLTP
	// working set (see BufferPool.EnableScanResist).
	ScanResistant bool
	// PrefetchWindow is the number of pages of sequential read-ahead
	// Engine.Scan requests once it detects a chain-sequential heap scan.
	// The requests are served by prefetcher processes
	// (StartPrefetchers); without them they are dropped. 0 disables.
	PrefetchWindow int
}

// Engine is the storage engine: buffer pool, WAL, catalog, heap files,
// B+-trees and transactions over a data volume and a log volume.
type Engine struct {
	vol    Volume
	bp     *BufferPool
	wal    *WAL
	lt     *LockTable
	cat    *catalog
	alloc  *allocator
	nextTx uint64
	// txs holds every transaction handle the engine has made: the active
	// ones are those not done. spareTx holds the finished ones for Begin
	// to reuse.
	txs     []*Tx
	spareTx []*Tx

	// prefetchWindow is the Scan read-ahead depth (EngineConfig).
	prefetchWindow int

	// Commits and Aborts count finished transactions.
	Commits int64
	Aborts  int64
	// Recovered reports whether Open performed crash recovery.
	Recovered bool
}

// Format initializes a fresh database on the data volume and an empty
// log volume, hosting the log on a VolumeLog ring.
func Format(ctx *IOCtx, dataVol, logVol Volume) error {
	return FormatLog(ctx, dataVol, NewVolumeLog(logVol))
}

// FormatLog initializes a fresh database on the data volume and an
// empty append-only log.
func FormatLog(ctx *IOCtx, dataVol Volume, log AppendLog) error {
	if err := formatData(ctx, dataVol); err != nil {
		return err
	}
	w := NewWAL(log)
	if _, err := w.ReadAnchor(ctx); err != nil { // a ring learns its window
		return err
	}
	return w.WriteAnchor(ctx, 0)
}

func formatData(ctx *IOCtx, dataVol Volume) error {
	buf := make([]byte, dataVol.PageSize())
	p := InitPage(buf, metaPageID, PageMeta)
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr, metaMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(metaPageID+1))
	if _, err := p.Insert(hdr); err != nil {
		return err
	}
	return dataVol.WritePage(ctx, metaPageID, buf, HintHotData)
}

// Open mounts a database whose log Format hosted on logVol, running
// crash recovery if the log holds work beyond the last checkpoint.
func Open(ctx *IOCtx, dataVol, logVol Volume, cfg EngineConfig) (*Engine, error) {
	return OpenLog(ctx, dataVol, NewVolumeLog(logVol), cfg)
}

// OpenLog mounts a database whose WAL lives on log, running crash
// recovery if the log holds work beyond the last checkpoint.
func OpenLog(ctx *IOCtx, dataVol Volume, log AppendLog, cfg EngineConfig) (*Engine, error) {
	e := &Engine{vol: dataVol, wal: NewWAL(log)}
	if cfg.BufferFrames <= 0 {
		cfg.BufferFrames = 256
	}
	e.lt = NewLockTable()
	e.alloc = &allocator{limit: e.vol.Pages()}
	e.bp = NewBufferPool(e.vol, e.wal, cfg.BufferFrames)
	if cfg.DeltaWrites {
		e.bp.EnableDeltaWrites()
	}
	if cfg.ScanResistant {
		e.bp.EnableScanResist()
	}
	e.prefetchWindow = cfg.PrefetchWindow
	if err := e.recover(ctx); err != nil {
		return nil, err
	}
	if err := e.loadMeta(ctx); err != nil {
		return nil, err
	}
	return e, nil
}

// Buffer exposes the buffer pool (db-writers, experiments).
func (e *Engine) Buffer() *BufferPool { return e.bp }

// PrefetchWindow returns the configured Scan read-ahead depth (0: off).
// Drivers use it to decide whether prefetcher processes are worth
// starting.
func (e *Engine) PrefetchWindow() int { return e.prefetchWindow }

// Log exposes the WAL (statistics).
func (e *Engine) Log() *WAL { return e.wal }

// Checkpoint flushes dirty pages and records a checkpoint, bounding
// recovery work and letting the log wrap.
func (e *Engine) Checkpoint(ctx *IOCtx) error {
	// Persist the catalog/allocator, then flush the pages dirty right
	// now (fuzzy: later arrivals stay dirty and are covered by the
	// checkpoint's redo bound).
	if err := e.saveMeta(ctx); err != nil {
		return err
	}
	if err := e.bp.FlushSnapshot(ctx); err != nil {
		return err
	}
	act := make(map[uint64]uint64, len(e.txs)-len(e.spareTx))
	for _, tx := range e.txs {
		if !tx.done {
			act[tx.id] = tx.firstLSN
		}
	}
	// The log may only be reclaimed below the recovery horizon: redo
	// needs records from the still-dirty pages' bound, undo from the
	// oldest active transaction's first record.
	redoStart := min(e.bp.MinRecLSN(), e.wal.NextLSN()) // still-dirty pages need redo from here
	keep := min(redoStart, e.oldestActive())
	lsn := e.wal.Append(&LogRecord{Type: RecCheckpoint, Active: act, Key: int64(redoStart)})
	if err := e.wal.flushBg(ctx, e.wal.NextLSN()); err != nil {
		return err
	}
	return e.wal.WriteAnchorKeep(ctx, lsn, keep)
}

// oldestActive returns the first LSN of the oldest open transaction, or
// the next LSN while none is open: undo may read the log from there.
func (e *Engine) oldestActive() uint64 {
	oldest := e.wal.NextLSN()
	for _, tx := range e.txs {
		if !tx.done {
			oldest = min(oldest, tx.firstLSN)
		}
	}
	return oldest
}

// Close checkpoints and shuts down.
func (e *Engine) Close(ctx *IOCtx) error {
	return e.Checkpoint(ctx)
}

// recover replays the log from the last checkpoint (redo), rolls back
// loser transactions (undo) and re-checkpoints.
func (e *Engine) recover(ctx *IOCtx) error {
	ckpt, err := e.wal.ReadAnchor(ctx)
	if err != nil {
		return err
	}
	recs, end, err := e.wal.RecoverScan(ctx, ckpt)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil // fresh database
	}
	if len(recs) == 1 && recs[0].Type == RecCheckpoint && len(recs[0].Active) == 0 &&
		uint64(recs[0].Key) >= recs[0].LSN {
		e.wal.Adopt(end)
		return nil // clean shutdown
	}
	e.Recovered = true

	// Fuzzy checkpoints: redo may need to start before the checkpoint
	// (pages dirty at checkpoint time), and undo may need records from
	// even earlier (transactions active at checkpoint time).
	var ckptRec *LogRecord
	if recs[0].Type == RecCheckpoint {
		ckptRec = recs[0]
	}
	redoFrom := ckpt
	undoStart := ckpt
	if ckptRec != nil {
		// Key holds the checkpoint's redo bound; LSN 0 is a valid bound
		// (the very first record), so no positivity guard.
		if rs := uint64(ckptRec.Key); rs < redoFrom {
			redoFrom = rs
		}
		for _, first := range ckptRec.Active {
			if first < undoStart {
				undoStart = first
			}
		}
	}
	if undoStart > redoFrom {
		undoStart = redoFrom
	}
	if undoStart < ckpt {
		pre, _, err := e.wal.RecoverScan(ctx, undoStart)
		if err != nil {
			return err
		}
		merged := make([]*LogRecord, 0, len(pre))
		for _, r := range pre {
			if r.LSN < ckpt {
				merged = append(merged, r)
			}
		}
		recs = append(merged, recs...)
	}

	// Redo phase: repeat history for records at/after the checkpoint.
	var maxPage PageID
	losers := map[uint64][]*LogRecord{}
	if ckptRec != nil {
		for id := range ckptRec.Active {
			losers[id] = nil
		}
	}
	for _, r := range recs {
		if r.Page > maxPage {
			maxPage = r.Page
		}
		switch r.Type {
		case RecBegin:
			losers[r.Tx] = nil
		case RecCommit, RecAbort:
			delete(losers, r.Tx)
		}
		if r.Tx != SystemTx {
			if _, ok := losers[r.Tx]; ok {
				losers[r.Tx] = append(losers[r.Tx], r)
			}
		}
		if r.LSN >= redoFrom {
			if err := e.redo(ctx, r); err != nil {
				return err
			}
		}
	}
	e.alloc.nextFree = maxPage + 1

	// Adopt the log tail so new records append after the scanned end.
	e.wal.Adopt(end)

	// Undo phase: roll back losers in reverse LSN order.
	loserIDs := make([]uint64, 0, len(losers))
	for id := range losers {
		loserIDs = append(loserIDs, id)
	}
	slices.Sort(loserIDs)
	for _, id := range loserIDs {
		loser := &Tx{}
		for _, r := range losers[id] {
			switch r.Type {
			case RecHeapInsert, RecHeapUpdate, RecHeapDelete:
				off, before := loser.keep(r.Before)
				loser.undo = append(loser.undo, undoRec{kind: r.Type, page: r.Page, slot: r.Slot,
					off: off, n: uint32(len(before))})
			case RecIdxInsert, RecIdxDelete:
				loser.undo = append(loser.undo, undoRec{kind: r.Type, idx: r.Idx, key: r.Key, rid: r.RID})
			}
		}
		// Index undo needs the catalog; load it now if not yet done.
		if e.cat == nil {
			if err := e.loadMeta(ctx); err != nil {
				return err
			}
		}
		if err := e.applyUndo(ctx, loser); err != nil {
			return err
		}
		e.wal.Append(&LogRecord{Type: RecAbort, Tx: id})
	}
	// Leave a clean state behind.
	if e.cat == nil {
		if err := e.loadMeta(ctx); err != nil {
			return err
		}
	}
	// The catalog holds each heap's tail as of its last saveMeta; chain
	// extensions since then live only in the redone link pages.
	for _, id := range e.cat.sortedIDs() {
		o := e.cat.byID[id]
		for o.kind == ObjHeap {
			f, err := e.bp.Pin(ctx, o.last, false)
			if err != nil {
				return err
			}
			next := nextInChain(f.P)
			e.bp.Unpin(f, false, 0)
			if next == InvalidPageID {
				break
			}
			o.last = next
		}
	}
	return e.Checkpoint(ctx)
}

// redo applies one record if its page has not seen it yet.
func (e *Engine) redo(ctx *IOCtx, r *LogRecord) error {
	switch r.Type {
	case RecBegin, RecCommit, RecAbort, RecCheckpoint:
		return nil
	}
	f, err := e.bp.Pin(ctx, r.Page, false)
	if err != nil {
		return err
	}
	if f.P.LSN() >= r.LSN && f.P.LSN() != 0 {
		e.bp.Unpin(f, false, 0)
		return nil
	}
	switch r.Type {
	case RecPageImage:
		copy(f.Data, r.After)
		f.hasBase = false // the whole image changed: flush it whole
	case RecHeapInsert:
		if err := f.P.InsertAt(r.Slot, r.After); err != nil && !errors.Is(err, ErrBadSlot) {
			e.bp.Unpin(f, false, 0)
			return fmt.Errorf("redo insert %d.%d: %w", r.Page, r.Slot, err)
		}
	case RecHeapUpdate:
		if err := f.P.Update(r.Slot, r.After); err != nil && !errors.Is(err, ErrBadSlot) {
			e.bp.Unpin(f, false, 0)
			return fmt.Errorf("redo update %d.%d: %w", r.Page, r.Slot, err)
		}
	case RecHeapDelete:
		_ = f.P.Delete(r.Slot)
	case RecIdxInsert:
		if pos, found := btLeafFind(f.P, r.Key); !found {
			if btCount(f.P) < btLeafCap(len(f.P.B)) {
				btLeafInsertAt(f.P, pos, r.Key, r.RID)
			}
		}
	case RecIdxDelete:
		if pos, found := btLeafFind(f.P, r.Key); found {
			btLeafDeleteAt(f.P, pos)
		}
	}
	f.P.SetLSN(r.LSN)
	e.bp.Unpin(f, true, r.LSN)
	return nil
}
