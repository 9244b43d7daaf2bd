package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"noftl/internal/sim"
)

// Errors from catalog and heap operations.
var (
	ErrNoTable      = errors.New("storage: no such table or index")
	ErrTableExists  = errors.New("storage: table or index already exists")
	ErrUpdateGrow   = errors.New("storage: update larger than page space (records are fixed-size)")
	ErrVolumeFull   = errors.New("storage: data volume out of pages")
	ErrDuplicateKey = errors.New("storage: duplicate index key")
)

// ObjKind distinguishes catalog objects.
type ObjKind uint8

// Catalog object kinds.
const (
	ObjHeap ObjKind = iota + 1
	ObjIndex
)

// object is a catalog entry.
type object struct {
	id      uint32
	kind    ObjKind
	name    string
	first   PageID // heap: first page of chain; index: root page
	last    PageID // heap: last page (insert target)
	fsm     []PageID
	latched bool          // index tree latch (see Engine.latchIndex)
	latchQ  sim.WaitQueue // its waiters
}

// catalog keeps table/index metadata. The durable copy lives as records
// in meta page 0; the in-memory copy is authoritative at runtime and is
// re-read on open.
type catalog struct {
	byName map[string]*object
	byID   map[uint32]*object
	nextID uint32
}

func newCatalog() *catalog {
	return &catalog{byName: map[string]*object{}, byID: map[uint32]*object{}, nextID: 1}
}

// encode an object as a meta-page record.
func (o *object) encode() []byte {
	b := make([]byte, 0, 32+len(o.name))
	b = binary.LittleEndian.AppendUint32(b, o.id)
	b = append(b, byte(o.kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(o.first))
	b = binary.LittleEndian.AppendUint64(b, uint64(o.last))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(o.name)))
	b = append(b, o.name...)
	return b
}

func decodeObject(b []byte) *object {
	o := &object{}
	o.id = binary.LittleEndian.Uint32(b)
	o.kind = ObjKind(b[4])
	o.first = PageID(binary.LittleEndian.Uint64(b[5:]))
	o.last = PageID(binary.LittleEndian.Uint64(b[13:]))
	n := int(binary.LittleEndian.Uint16(b[21:]))
	o.name = string(b[23 : 23+n])
	return o
}

// Meta page record 0 is the allocator header: {magic u64, nextFree u64}.
const metaMagic = 0x4e6f46544c444221 // "NoFTLDB!"

// allocator hands out volume pages. nextFree is persisted in the meta
// page at checkpoints; recovery re-derives it from the redo stream.
type allocator struct {
	nextFree PageID
	free     []PageID // in-memory free list (rebuilt empty on restart)
	limit    int64
}

func (a *allocator) alloc() (PageID, error) {
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		return id, nil
	}
	if int64(a.nextFree) >= a.limit {
		return 0, ErrVolumeFull
	}
	id := a.nextFree
	a.nextFree++
	return id, nil
}

func (a *allocator) release(id PageID) { a.free = append(a.free, id) }

// metaPageID is the catalog/allocator page on the data volume.
const metaPageID PageID = 0

// loadMeta parses the meta page into catalog + allocator.
func (e *Engine) loadMeta(ctx *IOCtx) error {
	f, err := e.bp.Pin(ctx, metaPageID, false)
	if err != nil {
		return err
	}
	defer e.bp.Unpin(f, false, 0)
	p := f.P
	if p.Type() != PageMeta || p.NumSlots() == 0 {
		return fmt.Errorf("%w: meta page missing", ErrPageCorrupt)
	}
	hdr, err := p.Record(0)
	if err != nil || binary.LittleEndian.Uint64(hdr) != metaMagic {
		return fmt.Errorf("%w: bad meta header", ErrPageCorrupt)
	}
	// Recovery may have seen the redo stream format pages past the saved
	// mark; it must not hand those out again.
	e.alloc.nextFree = max(e.alloc.nextFree, PageID(binary.LittleEndian.Uint64(hdr[8:])))
	e.cat = newCatalog()
	for i := 1; i < p.NumSlots(); i++ {
		rec, err := p.Record(i)
		if err != nil {
			continue
		}
		o := decodeObject(rec)
		e.cat.byName[o.name] = o
		e.cat.byID[o.id] = o
		if o.id >= e.cat.nextID {
			e.cat.nextID = o.id + 1
		}
	}
	return nil
}

// saveMeta rewrites the meta page from the in-memory catalog and logs it
// as a system page image (redo-only).
func (e *Engine) saveMeta(ctx *IOCtx) error {
	f, err := e.bp.Pin(ctx, metaPageID, false)
	if err != nil {
		return err
	}
	p := InitPage(f.Data, metaPageID, PageMeta)
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr, metaMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(e.alloc.nextFree))
	if _, err := p.Insert(hdr); err != nil {
		e.bp.Unpin(f, false, 0)
		return err
	}
	for _, id := range e.cat.sortedIDs() {
		if _, err := p.Insert(e.cat.byID[id].encode()); err != nil {
			e.bp.Unpin(f, false, 0)
			return fmt.Errorf("storage: meta page overflow (%d objects): %w", len(e.cat.byID), err)
		}
	}
	lsn := e.wal.Append(&LogRecord{Type: RecPageImage, Tx: SystemTx, Page: metaPageID,
		After: f.Data})
	e.bp.Unpin(f, true, lsn)
	return nil
}

func (c *catalog) sortedIDs() []uint32 {
	ids := make([]uint32, 0, len(c.byID))
	for id := range c.byID {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// CreateTable creates a heap table with one empty page.
func (e *Engine) CreateTable(ctx *IOCtx, name string) (uint32, error) {
	if _, ok := e.cat.byName[name]; ok {
		return 0, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	id, err := e.alloc.alloc()
	if err != nil {
		return 0, err
	}
	if err := e.formatPage(ctx, id, PageHeap); err != nil {
		return 0, err
	}
	o := &object{id: e.cat.nextID, kind: ObjHeap, name: name, first: id, last: id}
	e.cat.nextID++
	e.cat.byName[name] = o
	e.cat.byID[o.id] = o
	return o.id, e.saveMeta(ctx)
}

// OpenTable returns the id of an existing table or index.
func (e *Engine) OpenTable(name string) (uint32, error) {
	o, ok := e.cat.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return o.id, nil
}

// DropTable removes a table and deallocates its pages — on a NoFTL
// volume the pages stop being GC copy work immediately; on a legacy
// block volume the FTL keeps dragging them along (the paper's point).
func (e *Engine) DropTable(ctx *IOCtx, name string) error {
	o, ok := e.cat.byName[name]
	if !ok || o.kind != ObjHeap {
		return fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	for id := o.first; id != InvalidPageID; {
		f, err := e.bp.Pin(ctx, id, false)
		if err != nil {
			return err
		}
		next := PageID(int64(f.P.Aux()) - 1)
		e.bp.Unpin(f, false, 0)
		e.alloc.release(id)
		e.vol.Deallocate(id)
		id = next
	}
	delete(e.cat.byName, name)
	delete(e.cat.byID, o.id)
	return e.saveMeta(ctx)
}

// formatPage initializes a fresh page and logs its image (system redo).
func (e *Engine) formatPage(ctx *IOCtx, id PageID, t PageType) error {
	f, err := e.bp.Pin(ctx, id, true)
	if err != nil {
		return err
	}
	p := InitPage(f.Data, id, t)
	p.SetAux(uint64(InvalidPageID + 1)) // next pointer: none (stored +1)
	lsn := e.wal.Append(&LogRecord{Type: RecPageImage, Tx: SystemTx, Page: id,
		After: f.Data})
	e.bp.Unpin(f, true, lsn)
	return nil
}

// nextInChain reads a heap page's next pointer (Aux stores id+1 so the
// zero value means "none").
func nextInChain(p Page) PageID { return PageID(int64(p.Aux()) - 1) }

// Insert appends a record to the table, returning its RID. The new RID
// is locked by the transaction.
func (e *Engine) Insert(ctx *IOCtx, tx *Tx, table uint32, rec []byte) (RID, error) {
	o, ok := e.cat.byID[table]
	if !ok || o.kind != ObjHeap {
		return RID{}, fmt.Errorf("%w: id %d", ErrNoTable, table)
	}
	// Candidate pages: FSM hints, then the chain tail, then a new page.
	for i := len(o.fsm) - 1; i >= 0; i-- {
		rid, ok, err := e.tryInsert(ctx, tx, o.fsm[i], rec)
		if err != nil {
			return RID{}, err
		}
		if ok {
			return rid, nil
		}
		o.fsm = o.fsm[:i] // page full; drop hint
	}
	rid, ok2, err := e.tryInsert(ctx, tx, o.last, rec)
	if err != nil {
		return RID{}, err
	}
	if ok2 {
		return rid, nil
	}
	// Extend the chain with a fresh page.
	id, err := e.alloc.alloc()
	if err != nil {
		return RID{}, err
	}
	if err := e.formatPage(ctx, id, PageHeap); err != nil {
		return RID{}, err
	}
	// Link the old tail to the new page (system redo record).
	fOld, err := e.bp.Pin(ctx, o.last, false)
	if err != nil {
		return RID{}, err
	}
	fOld.P.SetAux(uint64(id + 1))
	lsn := e.wal.Append(&LogRecord{Type: RecPageImage, Tx: SystemTx, Page: o.last,
		After: fOld.Data})
	e.bp.Unpin(fOld, true, lsn)
	o.last = id
	rid, ok3, err := e.tryInsert(ctx, tx, id, rec)
	if err != nil {
		return RID{}, err
	}
	if !ok3 {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrRecordSize, len(rec))
	}
	return rid, nil
}

// tryInsert inserts into one page if it has room.
func (e *Engine) tryInsert(ctx *IOCtx, tx *Tx, id PageID, rec []byte) (RID, bool, error) {
	f, err := e.bp.Pin(ctx, id, false)
	if err != nil {
		return RID{}, false, err
	}
	slot, ierr := f.P.Insert(rec)
	if ierr != nil {
		e.bp.Unpin(f, false, 0)
		if errors.Is(ierr, ErrPageFull) {
			return RID{}, false, nil
		}
		return RID{}, false, ierr
	}
	rid := RID{Page: id, Slot: uint16(slot)}
	lsn := e.wal.Append(&LogRecord{Type: RecHeapInsert, Tx: tx.id, Page: id, Slot: slot,
		After: rec})
	e.bp.Unpin(f, true, lsn)
	// The fresh RID's lock is almost always free; a reused slot may still
	// be queued on by a transaction that saw the previous incarnation, so
	// wait rather than assume.
	if err := tx.lockWait(ctx, e, ridKey(rid)); err != nil {
		return RID{}, false, err
	}
	tx.undo = append(tx.undo, undoRec{kind: RecHeapInsert, page: id, slot: slot})
	return rid, true, nil
}

// Fetch copies the record at rid into the transaction's arena, valid
// until Commit or Abort. It takes the record lock for an instant (read
// committed), so it blocks on uncommitted writers.
func (e *Engine) Fetch(ctx *IOCtx, tx *Tx, rid RID) ([]byte, error) {
	k := ridKey(rid)
	held, err := e.lt.acquire(ctx, tx.id, k)
	if err != nil {
		return nil, err
	}
	if !held {
		defer e.lt.release(tx.id, k)
	}
	return e.fetchInto(ctx, tx, rid)
}

// fetchInto copies the record at rid into tx's arena.
func (e *Engine) fetchInto(ctx *IOCtx, tx *Tx, rid RID) ([]byte, error) {
	f, err := e.bp.Pin(ctx, rid.Page, false)
	if err != nil {
		return nil, err
	}
	defer e.bp.Unpin(f, false, 0)
	rec, err := f.P.Record(int(rid.Slot))
	if err != nil {
		return nil, err
	}
	_, row := tx.keep(rec)
	return row, nil
}

// ViewDirty passes the record at rid to fn without any locking. It is
// meant for analytical range scans whose callbacks run under an index
// latch, where taking record locks could deadlock against writers (and
// where read-committed precision is not required). As with Scan, rec is
// the page-resident record: valid only during fn, read-only.
func (e *Engine) ViewDirty(ctx *IOCtx, rid RID, fn func(rec []byte)) error {
	f, err := e.bp.Pin(ctx, rid.Page, false)
	if err != nil {
		return err
	}
	defer e.bp.Unpin(f, false, 0)
	rec, err := f.P.Record(int(rid.Slot))
	if err != nil {
		return err
	}
	fn(rec)
	return nil
}

// FetchDirty is ViewDirty returning a copy the caller owns.
func (e *Engine) FetchDirty(ctx *IOCtx, rid RID) ([]byte, error) {
	var row []byte
	err := e.ViewDirty(ctx, rid, func(rec []byte) { row = append([]byte(nil), rec...) })
	return row, err
}

// FetchForUpdate reads the record at rid holding its exclusive lock for
// the rest of the transaction (SELECT ... FOR UPDATE): the only safe way
// to read a value that the same transaction will write back, since a
// plain Fetch releases the lock and admits lost updates. The row lives
// in the transaction's arena, like Fetch's.
func (e *Engine) FetchForUpdate(ctx *IOCtx, tx *Tx, rid RID) ([]byte, error) {
	if err := tx.lockWait(ctx, e, ridKey(rid)); err != nil {
		return nil, err
	}
	return e.fetchInto(ctx, tx, rid)
}

// Update overwrites the record at rid (same size class).
func (e *Engine) Update(ctx *IOCtx, tx *Tx, rid RID, rec []byte) error {
	if err := tx.lockWait(ctx, e, ridKey(rid)); err != nil {
		return err
	}
	f, err := e.bp.Pin(ctx, rid.Page, false)
	if err != nil {
		return err
	}
	old, rerr := f.P.Record(int(rid.Slot))
	if rerr != nil {
		e.bp.Unpin(f, false, 0)
		return rerr
	}
	off, before := tx.keep(old)
	if uerr := f.P.Update(int(rid.Slot), rec); uerr != nil {
		e.bp.Unpin(f, false, 0)
		if errors.Is(uerr, ErrPageFull) {
			return ErrUpdateGrow
		}
		return uerr
	}
	lsn := e.wal.Append(&LogRecord{Type: RecHeapUpdate, Tx: tx.id, Page: rid.Page,
		Slot: int(rid.Slot), Before: before, After: rec})
	e.bp.Unpin(f, true, lsn)
	tx.undo = append(tx.undo, undoRec{kind: RecHeapUpdate, page: rid.Page, slot: int(rid.Slot),
		off: off, n: uint32(len(before))})
	return nil
}

// Delete marks rid for deletion; the physical delete and its log record
// happen at commit (deferred deletes make undo trivial and keep slots
// stable under rollback).
func (e *Engine) Delete(ctx *IOCtx, tx *Tx, table uint32, rid RID) error {
	if err := tx.lockWait(ctx, e, ridKey(rid)); err != nil {
		return err
	}
	tx.deletes = append(tx.deletes, deferredDelete{table: table, rid: rid})
	return nil
}

// scanSeqThreshold is the number of consecutive forward chain steps
// before Scan trusts the chain to be physically sequential and starts
// read-ahead; scanSeqMaxGap is the largest forward step still counted
// as sequential (heap chains grown under load skip the occasional page
// an index split grabbed in between). scanSeqSkip is how far ahead of
// the scan position read-ahead starts: the scan reaches the nearest
// pages before a low-priority read could complete, and waiting on one's
// in-flight prefetch would invert the command classes.
const (
	scanSeqThreshold = 2
	scanSeqMaxGap    = 4
	scanSeqSkip      = 2
)

// Scan iterates the table's records in chain order. fn returns false to
// stop. Scans read without locks (the analytical path).
//
// Heap chains grown by the allocator are usually physically sequential
// (each extension takes the next free page). Scan watches the chain:
// once scanSeqThreshold consecutive next pointers equal id+1 it assumes
// sequentiality and requests PrefetchWindow pages of read-ahead beyond
// the current position. The requests are speculative — a wrong guess
// caches a foreign page briefly — and are served by prefetcher
// processes through the scheduler's low-priority prefetch class, so the
// scan's reads pipeline across dies while foreground OLTP traffic keeps
// strict priority. A chain break (next != id+1) stops read-ahead until
// sequentiality is re-established.
func (e *Engine) Scan(ctx *IOCtx, table uint32, fn func(rid RID, rec []byte) bool) error {
	o, ok := e.cat.byID[table]
	if !ok || o.kind != ObjHeap {
		return fmt.Errorf("%w: id %d", ErrNoTable, table)
	}
	seq := 0
	ahead := InvalidPageID // first page not yet requested for read-ahead
	for id := o.first; id != InvalidPageID; {
		if e.prefetchWindow > 0 && seq >= scanSeqThreshold {
			start := id + scanSeqSkip
			if ahead > start {
				start = ahead
			}
			end := id + scanSeqSkip + PageID(e.prefetchWindow)
			for p := start; p < end; p++ {
				e.bp.RequestPrefetch(p)
			}
			if end > ahead {
				ahead = end
			}
		}
		f, err := e.bp.Pin(ctx, id, false)
		if err != nil {
			return err
		}
		n := f.P.NumSlots()
		for s := 0; s < n; s++ {
			rec, err := f.P.Record(s)
			if err != nil {
				continue
			}
			if !fn(RID{Page: id, Slot: uint16(s)}, rec) {
				e.bp.Unpin(f, false, 0)
				return nil
			}
		}
		next := nextInChain(f.P)
		e.bp.Unpin(f, false, 0)
		if next > id && next-id <= scanSeqMaxGap {
			seq++
		} else {
			// Chain break — possibly a backward jump into reused page ids:
			// restart detection AND the read-ahead high-water mark, or a
			// stale `ahead` above the new position would suppress requests
			// for the rest of the scan.
			seq = 0
			ahead = InvalidPageID
		}
		id = next
	}
	return nil
}

// noteFreeSpace remembers a page as an insert candidate.
func (e *Engine) noteFreeSpace(table uint32, id PageID) {
	o, ok := e.cat.byID[table]
	if !ok {
		return
	}
	for _, p := range o.fsm {
		if p == id {
			return
		}
	}
	if len(o.fsm) < 64 {
		o.fsm = append(o.fsm, id)
	}
}

func ridKey(r RID) lockKey {
	return lockKey{obj: 1<<62 | uint64(r.Slot), id: uint64(r.Page)}
}
