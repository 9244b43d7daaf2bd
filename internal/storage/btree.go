package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"noftl/internal/sim"
)

// B+-tree with int64 keys and RID values, one tree per index object.
// Leaves chain rightward through the page Aux field. Keys are unique.
// Structural changes (splits, new roots) are system-logged as full page
// images (nested top actions: they survive transaction rollback, which
// compensates logically). Entry insertions and deletions are logged
// physiologically and undone logically, so rollback finds keys even
// after they migrate across splits.
//
// Node layout, after the 32-byte page header:
//
//	leaf:  u16 count | count × {key i64, ridPage u64, ridSlot u16}
//	inner: u16 count | child0 u64 | count × {key i64, child u64}
//
// Separator semantics: child[i] holds keys < key[i] ≤ child[i+1].

// ErrNoKey reports a missing index key.
var ErrNoKey = errors.New("storage: key not found")

// latchIndex takes the index's tree latch. B-tree operations span
// multiple I/O waits (descent pins, split page allocations), so under
// the cooperative scheduler a structure modification must exclude every
// other operation on the same tree. A held latch queues its waiters FIFO
// and unlatchIndex hands it to the head one. For user transactions the
// wait times out like a lock (the caller aborts and retries), which also
// resolves latch/lock cycles. System operations (undo, recovery) wait
// patiently instead: rollback must never fail half-way, and it is safe
// for it to wait because no latch holder ever blocks on a lock (locks
// are always acquired before latches).
func (e *Engine) latchIndex(ctx *IOCtx, o *object, patient bool) error {
	if !o.latched {
		o.latched = true
		return nil
	}
	deadline := sim.Time(0)
	if !patient {
		deadline = ctx.W.Now() + e.lt.timeout
	}
	if !o.latchQ.Wait(ctx.W, deadline) {
		return fmt.Errorf("%w: index %s tree latch", ErrLockTimeout, o.name)
	}
	return nil // granted: the latch came to us held
}

// unlatchIndex releases the tree latch, straight to its first waiter if
// it has one.
func (e *Engine) unlatchIndex(o *object) {
	if !o.latchQ.Grant() {
		o.latched = false
	}
}

const (
	btCountOff   = pageHeaderSize
	btLeafEntOff = pageHeaderSize + 2
	btLeafEntSz  = 18
	btInnerChild = pageHeaderSize + 2
	btInnerEnt   = pageHeaderSize + 10
	btInnerEntSz = 16
)

func btCount(p Page) int { return int(binary.LittleEndian.Uint16(p.B[btCountOff:])) }
func btSetCount(p Page, n int) {
	binary.LittleEndian.PutUint16(p.B[btCountOff:], uint16(n))
}

func btLeafCap(pageSize int) int  { return (pageSize - btLeafEntOff) / btLeafEntSz }
func btInnerCap(pageSize int) int { return (pageSize - btInnerEnt) / btInnerEntSz }

func btLeafKey(p Page, i int) int64 {
	return int64(binary.LittleEndian.Uint64(p.B[btLeafEntOff+i*btLeafEntSz:]))
}

func btLeafRID(p Page, i int) RID {
	off := btLeafEntOff + i*btLeafEntSz + 8
	return RID{
		Page: PageID(binary.LittleEndian.Uint64(p.B[off:])),
		Slot: binary.LittleEndian.Uint16(p.B[off+8:]),
	}
}

func btLeafSet(p Page, i int, key int64, rid RID) {
	off := btLeafEntOff + i*btLeafEntSz
	binary.LittleEndian.PutUint64(p.B[off:], uint64(key))
	binary.LittleEndian.PutUint64(p.B[off+8:], uint64(rid.Page))
	binary.LittleEndian.PutUint16(p.B[off+16:], rid.Slot)
}

// btLeafFind returns the position of key (found) or its insertion point.
func btLeafFind(p Page, key int64) (int, bool) {
	lo, hi := 0, btCount(p)
	for lo < hi {
		mid := (lo + hi) / 2
		k := btLeafKey(p, mid)
		if k == key {
			return mid, true
		}
		if k < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, false
}

// btLeafInsertAt shifts entries right and stores the new one.
func btLeafInsertAt(p Page, pos int, key int64, rid RID) {
	n := btCount(p)
	if n >= btLeafCap(len(p.B)) || pos > n {
		panic(fmt.Sprintf("btree: leaf overflow page=%d n=%d pos=%d cap=%d type=%d",
			p.ID(), n, pos, btLeafCap(len(p.B)), p.Type()))
	}
	copy(p.B[btLeafEntOff+(pos+1)*btLeafEntSz:], p.B[btLeafEntOff+pos*btLeafEntSz:btLeafEntOff+n*btLeafEntSz])
	btLeafSet(p, pos, key, rid)
	btSetCount(p, n+1)
}

func btLeafDeleteAt(p Page, pos int) {
	n := btCount(p)
	copy(p.B[btLeafEntOff+pos*btLeafEntSz:], p.B[btLeafEntOff+(pos+1)*btLeafEntSz:btLeafEntOff+n*btLeafEntSz])
	btSetCount(p, n-1)
}

func btInnerChild0(p Page) PageID {
	return PageID(binary.LittleEndian.Uint64(p.B[btInnerChild:]))
}

func btInnerSetChild0(p Page, id PageID) {
	binary.LittleEndian.PutUint64(p.B[btInnerChild:], uint64(id))
}

func btInnerKey(p Page, i int) int64 {
	return int64(binary.LittleEndian.Uint64(p.B[btInnerEnt+i*btInnerEntSz:]))
}

func btInnerChildAt(p Page, i int) PageID { // child right of key i
	return PageID(binary.LittleEndian.Uint64(p.B[btInnerEnt+i*btInnerEntSz+8:]))
}

func btInnerSet(p Page, i int, key int64, child PageID) {
	off := btInnerEnt + i*btInnerEntSz
	binary.LittleEndian.PutUint64(p.B[off:], uint64(key))
	binary.LittleEndian.PutUint64(p.B[off+8:], uint64(child))
}

// btInnerDescend picks the child for key.
func btInnerDescend(p Page, key int64) PageID {
	n := btCount(p)
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if btInnerKey(p, mid) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return btInnerChild0(p)
	}
	return btInnerChildAt(p, lo-1)
}

func btInnerInsertAt(p Page, pos int, key int64, child PageID) {
	n := btCount(p)
	if n >= btInnerCap(len(p.B)) || pos > n {
		panic(fmt.Sprintf("btree: inner overflow page=%d n=%d pos=%d cap=%d type=%d",
			p.ID(), n, pos, btInnerCap(len(p.B)), p.Type()))
	}
	copy(p.B[btInnerEnt+(pos+1)*btInnerEntSz:], p.B[btInnerEnt+pos*btInnerEntSz:btInnerEnt+n*btInnerEntSz])
	btInnerSet(p, pos, key, child)
	btSetCount(p, n+1)
}

// btLeafSibling reads the right-sibling pointer (stored +1 in Aux).
func btLeafSibling(p Page) PageID { return PageID(int64(p.Aux()) - 1) }

func btLeafSetSibling(p Page, id PageID) { p.SetAux(uint64(id + 1)) }

// CreateIndex creates an empty B+-tree and registers it.
func (e *Engine) CreateIndex(ctx *IOCtx, name string) (uint32, error) {
	if _, ok := e.cat.byName[name]; ok {
		return 0, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	root, err := e.alloc.alloc()
	if err != nil {
		return 0, err
	}
	if err := e.formatBTPage(ctx, root, PageBTreeLeaf); err != nil {
		return 0, err
	}
	o := &object{id: e.cat.nextID, kind: ObjIndex, name: name, first: root, last: root}
	e.cat.nextID++
	e.cat.byName[name] = o
	e.cat.byID[o.id] = o
	return o.id, e.saveMeta(ctx)
}

func (e *Engine) formatBTPage(ctx *IOCtx, id PageID, t PageType) error {
	f, err := e.bp.Pin(ctx, id, true)
	if err != nil {
		return err
	}
	p := InitPage(f.Data, id, t)
	btSetCount(p, 0)
	if t == PageBTreeLeaf {
		btLeafSetSibling(p, InvalidPageID)
	}
	lsn := e.wal.Append(&LogRecord{Type: RecPageImage, Tx: SystemTx, Page: id,
		After: f.Data})
	e.bp.Unpin(f, true, lsn)
	return nil
}

// IdxInsert adds key→rid to the index under the transaction. Duplicate
// keys are rejected.
func (e *Engine) IdxInsert(ctx *IOCtx, tx *Tx, idx uint32, key int64, rid RID) error {
	if err := tx.lockWait(ctx, e, idxKeyLock(idx, key)); err != nil {
		return err
	}
	if err := e.idxInsertTx(ctx, tx.id, idx, key, rid); err != nil {
		return err
	}
	tx.undo = append(tx.undo, undoRec{kind: RecIdxInsert, idx: idx, key: key, rid: rid})
	return nil
}

// idxInsertPhysical inserts with system logging (undo, recovery).
func (e *Engine) idxInsertPhysical(ctx *IOCtx, idx uint32, key int64, rid RID, _ bool) error {
	return e.idxInsertTx(ctx, SystemTx, idx, key, rid)
}

func (e *Engine) idxInsertTx(ctx *IOCtx, txid uint64, idx uint32, key int64, rid RID) error {
	o, ok := e.cat.byID[idx]
	if !ok || o.kind != ObjIndex {
		return fmt.Errorf("%w: index %d", ErrNoTable, idx)
	}
	if err := e.latchIndex(ctx, o, txid == SystemTx); err != nil {
		return err
	}
	defer e.unlatchIndex(o)
	promoted, err := e.btInsert(ctx, txid, idx, o.first, key, rid)
	if err != nil {
		return err
	}
	if promoted == nil {
		return nil
	}
	// Root split: grow the tree by one level.
	newRoot, err := e.alloc.alloc()
	if err != nil {
		return err
	}
	f, err := e.bp.Pin(ctx, newRoot, true)
	if err != nil {
		return err
	}
	p := InitPage(f.Data, newRoot, PageBTreeInner)
	btInnerSetChild0(p, o.first)
	btInnerSet(p, 0, promoted.key, promoted.right)
	btSetCount(p, 1)
	lsn := e.wal.Append(&LogRecord{Type: RecPageImage, Tx: SystemTx, Page: newRoot,
		After: f.Data})
	e.bp.Unpin(f, true, lsn)
	o.first = newRoot
	return e.saveMeta(ctx)
}

type btSplit struct {
	key   int64
	right PageID
}

// btInsert recursively inserts, returning a promoted separator when the
// child split.
func (e *Engine) btInsert(ctx *IOCtx, txid uint64, idx uint32, pageID PageID, key int64, rid RID) (*btSplit, error) {
	f, err := e.bp.Pin(ctx, pageID, false)
	if err != nil {
		return nil, err
	}
	switch f.P.Type() {
	case PageBTreeLeaf:
		return e.btLeafInsert(ctx, txid, idx, f, key, rid)
	case PageBTreeInner:
		child := btInnerDescend(f.P, key)
		e.bp.Unpin(f, false, 0)
		promoted, err := e.btInsert(ctx, txid, idx, child, key, rid)
		if err != nil || promoted == nil {
			return nil, err
		}
		return e.btInnerAdd(ctx, pageID, promoted)
	default:
		t := f.P.Type()
		e.bp.Unpin(f, false, 0)
		return nil, fmt.Errorf("%w: page %d is %d, not a B-tree node", ErrPageType, pageID, t)
	}
}

// btLeafInsert inserts into a pinned leaf, splitting if full. It always
// unpins f.
func (e *Engine) btLeafInsert(ctx *IOCtx, txid uint64, idx uint32, f *Frame, key int64, rid RID) (*btSplit, error) {
	p := f.P
	pos, found := btLeafFind(p, key)
	if found {
		e.bp.Unpin(f, false, 0)
		return nil, fmt.Errorf("%w: %d", ErrDuplicateKey, key)
	}
	if btCount(p) < btLeafCap(len(p.B)) {
		btLeafInsertAt(p, pos, key, rid)
		lsn := e.wal.Append(&LogRecord{Type: RecIdxInsert, Tx: txid, Idx: idx, Page: f.ID, Key: key, RID: rid})
		e.bp.Unpin(f, true, lsn)
		return nil, nil
	}
	// Split: upper half moves to a new right sibling.
	rightID, err := e.alloc.alloc()
	if err != nil {
		e.bp.Unpin(f, false, 0)
		return nil, err
	}
	rf, err := e.bp.Pin(ctx, rightID, true)
	if err != nil {
		e.bp.Unpin(f, false, 0)
		return nil, err
	}
	rp := InitPage(rf.Data, rightID, PageBTreeLeaf)
	n := btCount(p)
	half := n / 2
	for i := half; i < n; i++ {
		btLeafSet(rp, i-half, btLeafKey(p, i), btLeafRID(p, i))
	}
	btSetCount(rp, n-half)
	btSetCount(p, half)
	btLeafSetSibling(rp, btLeafSibling(p))
	btLeafSetSibling(p, rightID)
	sep := btLeafKey(rp, 0)
	// The split itself: system page images (nested top action).
	lsnL := e.wal.Append(&LogRecord{Type: RecPageImage, Tx: SystemTx, Page: f.ID,
		After: f.Data})
	lsnR := e.wal.Append(&LogRecord{Type: RecPageImage, Tx: SystemTx, Page: rightID,
		After: rf.Data})
	// Now insert the key into the proper side, logged physiologically.
	if key < sep {
		ipos, _ := btLeafFind(p, key)
		btLeafInsertAt(p, ipos, key, rid)
		lsnL = e.wal.Append(&LogRecord{Type: RecIdxInsert, Tx: txid, Idx: idx, Page: f.ID, Key: key, RID: rid})
	} else {
		ipos, _ := btLeafFind(rp, key)
		btLeafInsertAt(rp, ipos, key, rid)
		lsnR = e.wal.Append(&LogRecord{Type: RecIdxInsert, Tx: txid, Idx: idx, Page: rightID, Key: key, RID: rid})
	}
	e.bp.Unpin(f, true, lsnL)
	e.bp.Unpin(rf, true, lsnR)
	return &btSplit{key: sep, right: rightID}, nil
}

// btInnerAdd inserts a promoted separator into an inner node, splitting
// it if full.
func (e *Engine) btInnerAdd(ctx *IOCtx, pageID PageID, s *btSplit) (*btSplit, error) {
	f, err := e.bp.Pin(ctx, pageID, false)
	if err != nil {
		return nil, err
	}
	p := f.P
	n := btCount(p)
	pos := 0
	for pos < n && btInnerKey(p, pos) < s.key {
		pos++
	}
	if n < btInnerCap(len(p.B)) {
		btInnerInsertAt(p, pos, s.key, s.right)
		lsn := e.wal.Append(&LogRecord{Type: RecPageImage, Tx: SystemTx, Page: pageID,
			After: f.Data})
		e.bp.Unpin(f, true, lsn)
		return nil, nil
	}
	// Split the inner node; the middle key moves up. The node is full,
	// so merge its entries with the new one in a scratch list first
	// (inserting in place would overrun the page).
	type innerEnt struct {
		key   int64
		child PageID
	}
	ents := make([]innerEnt, 0, n+1)
	for i := 0; i < n; i++ {
		ents = append(ents, innerEnt{btInnerKey(p, i), btInnerChildAt(p, i)})
	}
	ents = append(ents, innerEnt{})
	copy(ents[pos+1:], ents[pos:])
	ents[pos] = innerEnt{s.key, s.right}
	mid := len(ents) / 2
	upKey := ents[mid].key
	rightID, err := e.alloc.alloc()
	if err != nil {
		e.bp.Unpin(f, false, 0)
		return nil, err
	}
	rf, err := e.bp.Pin(ctx, rightID, true)
	if err != nil {
		e.bp.Unpin(f, false, 0)
		return nil, err
	}
	rp := InitPage(rf.Data, rightID, PageBTreeInner)
	for i, en := range ents[:mid] {
		btInnerSet(p, i, en.key, en.child)
	}
	btSetCount(p, mid)
	btInnerSetChild0(rp, ents[mid].child)
	for i, en := range ents[mid+1:] {
		btInnerSet(rp, i, en.key, en.child)
	}
	btSetCount(rp, len(ents)-mid-1)
	lsnL := e.wal.Append(&LogRecord{Type: RecPageImage, Tx: SystemTx, Page: pageID,
		After: f.Data})
	lsnR := e.wal.Append(&LogRecord{Type: RecPageImage, Tx: SystemTx, Page: rightID,
		After: rf.Data})
	e.bp.Unpin(f, true, lsnL)
	e.bp.Unpin(rf, true, lsnR)
	return &btSplit{key: upKey, right: rightID}, nil
}

// IdxLookup finds key, taking its lock for an instant (read committed).
func (e *Engine) IdxLookup(ctx *IOCtx, tx *Tx, idx uint32, key int64) (RID, bool, error) {
	if tx != nil {
		k := idxKeyLock(idx, key)
		held, err := e.lt.acquire(ctx, tx.id, k)
		if err != nil {
			return RID{}, false, err
		}
		if !held {
			defer e.lt.release(tx.id, k)
		}
	}
	o, ok := e.cat.byID[idx]
	if !ok || o.kind != ObjIndex {
		return RID{}, false, fmt.Errorf("%w: index %d", ErrNoTable, idx)
	}
	if err := e.latchIndex(ctx, o, false); err != nil {
		return RID{}, false, err
	}
	defer e.unlatchIndex(o)
	leaf, err := e.btDescendToLeaf(ctx, o.first, key)
	if err != nil {
		return RID{}, false, err
	}
	defer e.bp.Unpin(leaf, false, 0)
	pos, found := btLeafFind(leaf.P, key)
	if !found {
		return RID{}, false, nil
	}
	return btLeafRID(leaf.P, pos), true, nil
}

// btDescendToLeaf returns the pinned leaf that would hold key.
func (e *Engine) btDescendToLeaf(ctx *IOCtx, root PageID, key int64) (*Frame, error) {
	id := root
	for {
		f, err := e.bp.Pin(ctx, id, false)
		if err != nil {
			return nil, err
		}
		switch f.P.Type() {
		case PageBTreeLeaf:
			return f, nil
		case PageBTreeInner:
			id = btInnerDescend(f.P, key)
			e.bp.Unpin(f, false, 0)
		default:
			t := f.P.Type()
			e.bp.Unpin(f, false, 0)
			return nil, fmt.Errorf("%w: page %d is %d during descent", ErrPageType, id, t)
		}
	}
}

// IdxRange calls fn for every key in [lo, hi], in order, without locks.
func (e *Engine) IdxRange(ctx *IOCtx, idx uint32, lo, hi int64, fn func(key int64, rid RID) bool) error {
	o, ok := e.cat.byID[idx]
	if !ok || o.kind != ObjIndex {
		return fmt.Errorf("%w: index %d", ErrNoTable, idx)
	}
	if err := e.latchIndex(ctx, o, false); err != nil {
		return err
	}
	defer e.unlatchIndex(o)
	leaf, err := e.btDescendToLeaf(ctx, o.first, lo)
	if err != nil {
		return err
	}
	for {
		p := leaf.P
		n := btCount(p)
		pos, _ := btLeafFind(p, lo)
		for i := pos; i < n; i++ {
			k := btLeafKey(p, i)
			if k > hi {
				e.bp.Unpin(leaf, false, 0)
				return nil
			}
			if !fn(k, btLeafRID(p, i)) {
				e.bp.Unpin(leaf, false, 0)
				return nil
			}
		}
		next := btLeafSibling(p)
		e.bp.Unpin(leaf, false, 0)
		if next == InvalidPageID {
			return nil
		}
		leaf, err = e.bp.Pin(ctx, next, false)
		if err != nil {
			return err
		}
		lo = btLeafKey(leaf.P, 0) // continue from the sibling's start
		if btCount(leaf.P) == 0 {
			e.bp.Unpin(leaf, false, 0)
			return nil
		}
	}
}

// IdxDelete removes key under the transaction.
func (e *Engine) IdxDelete(ctx *IOCtx, tx *Tx, idx uint32, key int64) error {
	if err := tx.lockWait(ctx, e, idxKeyLock(idx, key)); err != nil {
		return err
	}
	rid, found, err := e.idxDeleteTx(ctx, tx.id, idx, key)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %d", ErrNoKey, key)
	}
	tx.undo = append(tx.undo, undoRec{kind: RecIdxDelete, idx: idx, key: key, rid: rid})
	return nil
}

// idxDeletePhysical removes with system logging (undo, recovery).
func (e *Engine) idxDeletePhysical(ctx *IOCtx, idx uint32, key int64, _ bool) error {
	_, _, err := e.idxDeleteTx(ctx, SystemTx, idx, key)
	return err
}

func (e *Engine) idxDeleteTx(ctx *IOCtx, txid uint64, idx uint32, key int64) (RID, bool, error) {
	o, ok := e.cat.byID[idx]
	if !ok || o.kind != ObjIndex {
		return RID{}, false, fmt.Errorf("%w: index %d", ErrNoTable, idx)
	}
	if err := e.latchIndex(ctx, o, txid == SystemTx); err != nil {
		return RID{}, false, err
	}
	defer e.unlatchIndex(o)
	leaf, err := e.btDescendToLeaf(ctx, o.first, key)
	if err != nil {
		return RID{}, false, err
	}
	pos, found := btLeafFind(leaf.P, key)
	if !found {
		e.bp.Unpin(leaf, false, 0)
		return RID{}, false, nil
	}
	rid := btLeafRID(leaf.P, pos)
	btLeafDeleteAt(leaf.P, pos)
	lsn := e.wal.Append(&LogRecord{Type: RecIdxDelete, Tx: txid, Idx: idx, Page: leaf.ID, Key: key, RID: rid})
	e.bp.Unpin(leaf, true, lsn)
	return rid, true, nil
}

func idxKeyLock(idx uint32, key int64) lockKey {
	return lockKey{obj: uint64(idx) << 32, id: uint64(key)}
}
