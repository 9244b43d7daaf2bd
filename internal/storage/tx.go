package storage

import (
	"errors"
	"fmt"
	"slices"
)

// ErrTxDone rejects operations on finished transactions.
var ErrTxDone = errors.New("storage: transaction already finished")

type undoRec struct {
	kind RecType
	idx  uint32 // beside kind: one word for both keeps Tx in the 512-byte size class
	page PageID
	slot int
	// before-image: arena[off : off+n] of the owning transaction
	off, n uint32
	key    int64
	rid    RID
}

type deferredDelete struct {
	table uint32
	rid   RID
}

// Tx is a transaction handle. Commit and Abort hand it back to the
// engine, whose next Begin reuses it: a Tx must not be used after
// Commit or Abort returns.
type Tx struct {
	id       uint64
	firstLSN uint64
	done     bool // committed or aborted
	undo     []undoRec
	locks    []lockKey // held until commit or abort, each key once
	deletes  []deferredDelete
	// arena holds the rows Fetch and FetchForUpdate return and the
	// before-images undo records point into; reuse keeps its capacity.
	arena []byte
	// A short transaction's locks and undo records live in the handle
	// itself: it allocates once and grows nothing.
	lockBuf [8]lockKey
	undoBuf [4]undoRec
}

// lockWait acquires k and holds it to the end of the transaction, waiting
// as needed.
func (t *Tx) lockWait(ctx *IOCtx, e *Engine, k lockKey) error {
	held, err := e.lt.acquire(ctx, t.id, k)
	if err == nil && !held {
		t.locks = append(t.locks, k)
	}
	return err
}

// keep copies b to the end of the arena, returning its offset and the
// copy, capacity-clamped so an append to it cannot reach the next.
func (t *Tx) keep(b []byte) (uint32, []byte) {
	off := len(t.arena)
	t.arena = append(t.arena, b...)
	return uint32(off), t.arena[off:len(t.arena):len(t.arena)]
}

// Scratch returns n zeroed bytes from the transaction's arena, valid
// until Commit or Abort: room for a row the caller builds and hands to
// Insert or Update, which keep nothing of it.
func (t *Tx) Scratch(n int) []byte {
	off := len(t.arena)
	t.arena = slices.Grow(t.arena, n)[:off+n]
	clear(t.arena[off:])
	return t.arena[off : off+n : off+n]
}

// Begin starts a transaction, reusing a finished handle when one is free.
func (e *Engine) Begin() *Tx {
	e.nextTx++
	var tx *Tx
	if n := len(e.spareTx); n > 0 {
		tx, e.spareTx = e.spareTx[n-1], e.spareTx[:n-1]
	} else {
		tx = new(Tx)
		tx.locks, tx.undo = tx.lockBuf[:0], tx.undoBuf[:0]
		e.txs = append(e.txs, tx)
	}
	tx.id, tx.done = e.nextTx, false
	tx.locks, tx.undo, tx.deletes, tx.arena = tx.locks[:0], tx.undo[:0], tx.deletes[:0], tx.arena[:0]
	tx.firstLSN = e.wal.Append(&LogRecord{Type: RecBegin, Tx: tx.id})
	return tx
}

// finish releases a transaction's locks and frees its handle for Begin.
// Committers may wait on a log it pinned: a checkpoint may free it now.
func (e *Engine) finish(tx *Tx) {
	tx.done = true
	e.lt.releaseAll(tx.id, tx.locks)
	e.spareTx = append(e.spareTx, tx)
	if !e.wal.anchored.Empty() && !e.wal.pins(e.oldestActive()) {
		e.wal.ckpt.Grant()
	}
}

// Commit applies deferred deletes, makes the transaction durable (group
// commit) and releases its locks, a process first waiting for log room
// (awaitRoom). Once the log is due (logDue) a process grants the
// engine's checkpointer; a processless caller checkpoints itself (an
// error then is the checkpoint's; the transaction stays committed).
func (e *Engine) Commit(ctx *IOCtx, tx *Tx) error {
	if tx.done {
		return ErrTxDone
	}
	e.awaitRoom(ctx)
	for _, d := range tx.deletes {
		if err := e.applyDelete(ctx, tx, d); err != nil {
			return err
		}
	}
	lsn := e.wal.Append(&LogRecord{Type: RecCommit, Tx: tx.id})
	if err := e.wal.Flush(ctx, lsn+1); err != nil {
		return err
	}
	e.finish(tx)
	e.Commits++
	if e.logDue() {
		if ctx.W.Proc() == nil {
			return e.Checkpoint(ctx)
		}
		e.wal.ckpt.Grant()
	}
	return nil
}

// logDue is the engine's one checkpoint rule: half the log written since
// the last anchor. Counting from the anchor, not the recovery horizon,
// checkpoints a log an open transaction pins once per half written.
func (e *Engine) logDue() bool {
	return e.wal.SinceAnchor()*2 > e.wal.Capacity()
}

// awaitRoom is the log's back-pressure on committers: while three
// quarters of its pages are held (WAL.tight), a process waits for the
// next anchor. Before parking it grants the checkpointer, unless an open
// transaction pins the log's head, so that a checkpoint frees nothing.
// The checkpointer never commits; a processless caller never waits.
func (e *Engine) awaitRoom(ctx *IOCtx) {
	for ctx.W.Proc() != nil && e.wal.tight() {
		if !e.wal.pins(e.oldestActive()) {
			e.wal.ckpt.Grant()
		}
		e.wal.anchored.Wait(ctx.W, 0)
	}
}

// LoadRows inserts n rows produced by gen into tbl and indexes each
// under its key in idx: the serial bulk load every benchmark shares. It
// commits every 500 rows to bound undo memory, and an error aborts the
// batch in hand.
func (e *Engine) LoadRows(ctx *IOCtx, tbl, idx uint32, n int64, gen func(i int64) (key int64, row []byte)) error {
	const batch = 500
	for start := int64(0); start < n; start += batch {
		tx := e.Begin()
		var err error
		for i := start; i < min(start+batch, n) && err == nil; i++ {
			key, row := gen(i)
			var rid RID
			if rid, err = e.Insert(ctx, tx, tbl, row); err == nil {
				err = e.IdxInsert(ctx, tx, idx, key, rid)
			}
		}
		if err != nil {
			if aerr := e.Abort(ctx, tx); aerr != nil {
				return fmt.Errorf("storage: abort failed (%v) after: %w", aerr, err)
			}
			return err
		}
		if err := e.Commit(ctx, tx); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) applyDelete(ctx *IOCtx, tx *Tx, d deferredDelete) error {
	f, err := e.bp.Pin(ctx, d.rid.Page, false)
	if err != nil {
		return err
	}
	rec, rerr := f.P.Record(int(d.rid.Slot))
	if rerr != nil {
		e.bp.Unpin(f, false, 0)
		return nil // already gone; deletes are idempotent
	}
	_, before := tx.keep(rec)
	if err := f.P.Delete(int(d.rid.Slot)); err != nil {
		e.bp.Unpin(f, false, 0)
		return err
	}
	lsn := e.wal.Append(&LogRecord{Type: RecHeapDelete, Tx: tx.id, Page: d.rid.Page,
		Slot: int(d.rid.Slot), Before: before})
	e.bp.Unpin(f, true, lsn)
	e.noteFreeSpace(d.table, d.rid.Page)
	return nil
}

// Abort rolls the transaction back: undo actions run in reverse order,
// logged as system (redo-only) compensation records. Undo is idempotent,
// so a crash mid-abort is handled by recovery redoing the compensations
// and re-undoing the remainder.
func (e *Engine) Abort(ctx *IOCtx, tx *Tx) error {
	if tx.done {
		return ErrTxDone
	}
	if err := e.applyUndo(ctx, tx); err != nil {
		return err
	}
	e.wal.Append(&LogRecord{Type: RecAbort, Tx: tx.id})
	e.finish(tx)
	e.Aborts++
	return nil
}

// applyUndo reverses a transaction's actions (newest first).
func (e *Engine) applyUndo(ctx *IOCtx, tx *Tx) error {
	for i := len(tx.undo) - 1; i >= 0; i-- {
		u := tx.undo[i]
		before := tx.arena[u.off : u.off+u.n]
		switch u.kind {
		case RecHeapInsert:
			f, err := e.bp.Pin(ctx, u.page, false)
			if err != nil {
				return err
			}
			_ = f.P.Delete(u.slot) // idempotent: may already be gone
			lsn := e.wal.Append(&LogRecord{Type: RecHeapDelete, Tx: SystemTx, Page: u.page, Slot: u.slot})
			e.bp.Unpin(f, true, lsn)
		case RecHeapUpdate:
			f, err := e.bp.Pin(ctx, u.page, false)
			if err != nil {
				return err
			}
			if err := f.P.Update(u.slot, before); err != nil && !errors.Is(err, ErrBadSlot) {
				e.bp.Unpin(f, false, 0)
				return err
			}
			lsn := e.wal.Append(&LogRecord{Type: RecHeapUpdate, Tx: SystemTx, Page: u.page,
				Slot: u.slot, After: before})
			e.bp.Unpin(f, true, lsn)
		case RecHeapDelete:
			f, err := e.bp.Pin(ctx, u.page, false)
			if err != nil {
				return err
			}
			if err := f.P.InsertAt(u.slot, before); err != nil && !errors.Is(err, ErrBadSlot) {
				e.bp.Unpin(f, false, 0)
				return err
			}
			lsn := e.wal.Append(&LogRecord{Type: RecHeapInsert, Tx: SystemTx, Page: u.page,
				Slot: u.slot, After: before})
			e.bp.Unpin(f, true, lsn)
		case RecIdxInsert:
			// Logical undo: the key may have moved across splits.
			if err := e.idxDeletePhysical(ctx, u.idx, u.key, true); err != nil {
				return err
			}
		case RecIdxDelete:
			if err := e.idxInsertPhysical(ctx, u.idx, u.key, u.rid, true); err != nil &&
				!errors.Is(err, ErrDuplicateKey) {
				return err
			}
		}
	}
	return nil
}
