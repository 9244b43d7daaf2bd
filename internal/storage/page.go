// Package storage implements a Shore-MT-class storage engine: slotted
// pages, a buffer pool with background db-writers, ARIES-style
// write-ahead logging with crash recovery, heap files with a free-space
// manager, B+-tree indexes and transactions.
//
// The engine runs over any storage.Volume — the NoFTL native-flash
// volume, a legacy block device hiding an FTL, or plain memory — which is
// exactly the comparison the paper performs. All engine I/O flows
// through an IOCtx carrying a sim.Waiter, so the same code runs under
// the DES kernel (experiments), a serial virtual clock (tests) or the
// wall clock (demos).
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PageID is a logical page number on a volume.
type PageID int64

// InvalidPageID marks "no page".
const InvalidPageID PageID = -1

// PageType tags the content of a page.
type PageType uint16

// Page types.
const (
	PageFree PageType = iota
	PageMeta
	PageHeap
	PageBTreeLeaf
	PageBTreeInner
)

// Slotted page layout:
//
//	offset  size  field
//	0       8     pageLSN
//	8       8     pageID (sanity check)
//	16      2     pageType
//	18      2     nSlots
//	20      2     freeOff (start of unused space)
//	22      2     flags
//	24      8     reserved (per-type use, e.g. B-tree sibling pointer)
//	32      ...   record space, grows up
//	end     4*n   slot directory, grows down: per slot {off u16, len u16}
const (
	pageHeaderSize = 32
	slotSize       = 4
	deletedOff     = 0xFFFF
)

// Errors returned by page operations.
var (
	ErrPageFull    = errors.New("storage: page has no room")
	ErrBadSlot     = errors.New("storage: slot out of range or deleted")
	ErrRecordSize  = errors.New("storage: record too large for a page")
	ErrPageType    = errors.New("storage: unexpected page type")
	ErrPageCorrupt = errors.New("storage: page failed validation")
)

// Page is a typed view over a page-sized byte buffer. It performs no
// allocation; all mutation happens in place. Mutators record nothing
// about what they changed: the buffer pool's flush diffs the frame
// against its base image (BufferPool.writeFrameData).
type Page struct {
	B []byte
}

// InitPage formats buf as an empty page of the given type.
func InitPage(buf []byte, id PageID, t PageType) Page {
	for i := range buf {
		buf[i] = 0
	}
	p := Page{B: buf}
	p.SetID(id)
	p.SetType(t)
	p.setFreeOff(pageHeaderSize)
	return p
}

// LSN returns the page LSN (recovery ordering).
func (p Page) LSN() uint64 { return binary.LittleEndian.Uint64(p.B[0:]) }

// SetLSN stores the page LSN.
func (p Page) SetLSN(l uint64) { binary.LittleEndian.PutUint64(p.B[0:], l) }

// ID returns the stored page id.
func (p Page) ID() PageID { return PageID(binary.LittleEndian.Uint64(p.B[8:])) }

// SetID stores the page id.
func (p Page) SetID(id PageID) { binary.LittleEndian.PutUint64(p.B[8:], uint64(id)) }

// Type returns the page type.
func (p Page) Type() PageType { return PageType(binary.LittleEndian.Uint16(p.B[16:])) }

// SetType stores the page type.
func (p Page) SetType(t PageType) { binary.LittleEndian.PutUint16(p.B[16:], uint16(t)) }

// NumSlots returns the slot directory size (including deleted slots).
func (p Page) NumSlots() int { return int(binary.LittleEndian.Uint16(p.B[18:])) }

func (p Page) setNumSlots(n int) { binary.LittleEndian.PutUint16(p.B[18:], uint16(n)) }

func (p Page) freeOff() int     { return int(binary.LittleEndian.Uint16(p.B[20:])) }
func (p Page) setFreeOff(o int) { binary.LittleEndian.PutUint16(p.B[20:], uint16(o)) }

// Aux returns the per-type auxiliary field (B-tree sibling, FSM hint...).
func (p Page) Aux() uint64 { return binary.LittleEndian.Uint64(p.B[24:]) }

// SetAux stores the auxiliary field.
func (p Page) SetAux(v uint64) { binary.LittleEndian.PutUint64(p.B[24:], v) }

func (p Page) slotPos(i int) int { return len(p.B) - (i+1)*slotSize }

func (p Page) slot(i int) (off, length int) {
	pos := p.slotPos(i)
	return int(binary.LittleEndian.Uint16(p.B[pos:])),
		int(binary.LittleEndian.Uint16(p.B[pos+2:]))
}

func (p Page) setSlot(i, off, length int) {
	pos := p.slotPos(i)
	binary.LittleEndian.PutUint16(p.B[pos:], uint16(off))
	binary.LittleEndian.PutUint16(p.B[pos+2:], uint16(length))
}

// FreeSpace returns the bytes available for a new record (including its
// slot entry).
func (p Page) FreeSpace() int {
	free := len(p.B) - p.NumSlots()*slotSize - p.freeOff()
	if free < 0 {
		return 0
	}
	return free
}

// sane reports whether the record space and the slot directory the
// header describes fit the page without overlapping. Every slot access
// relies on it, and every live record lies in the record space: a page
// breaking either is corrupt, a torn or foreign image.
func (p Page) sane() bool {
	free := p.freeOff()
	return free >= pageHeaderSize && free <= len(p.B)-p.NumSlots()*slotSize
}

// Insert stores a record and returns its slot. It reuses deleted slots
// and compacts the page if fragmentation blocks an otherwise fitting
// record.
func (p Page) Insert(rec []byte) (int, error) {
	if len(rec)+slotSize > len(p.B)-pageHeaderSize {
		return 0, fmt.Errorf("%w: %d bytes in %d-byte page", ErrRecordSize, len(rec), len(p.B))
	}
	if !p.sane() {
		return 0, ErrPageCorrupt
	}
	slot := -1
	for i := 0; i < p.NumSlots(); i++ {
		if off, _ := p.slot(i); off == deletedOff {
			slot = i
			break
		}
	}
	need := len(rec)
	if slot == -1 {
		need += slotSize
	}
	if p.FreeSpace() < need {
		if p.usableSpace() >= need {
			p.compact()
		} else {
			return 0, ErrPageFull
		}
	}
	off := p.freeOff()
	copy(p.B[off:], rec)
	p.setFreeOff(off + len(rec))
	if slot == -1 {
		slot = p.NumSlots()
		p.setNumSlots(slot + 1)
	}
	p.setSlot(slot, off, len(rec))
	return slot, nil
}

// InsertAt places a record into a specific slot (recovery redo and
// delete-undo). The slot must be deleted or lie at/just beyond the end
// of the directory; intermediate slots are created deleted.
func (p Page) InsertAt(slot int, rec []byte) error {
	if slot < 0 || slot > 4096 {
		return fmt.Errorf("%w: slot %d", ErrBadSlot, slot)
	}
	if !p.sane() {
		return ErrPageCorrupt
	}
	if slot < p.NumSlots() {
		if off, _ := p.slot(slot); off != deletedOff {
			return fmt.Errorf("%w: slot %d occupied", ErrBadSlot, slot)
		}
	}
	grow := 0
	if slot >= p.NumSlots() {
		grow = (slot - p.NumSlots() + 1) * slotSize
	}
	if p.FreeSpace() < len(rec)+grow {
		if p.usableSpace() < len(rec)+grow {
			return ErrPageFull
		}
		p.compact()
	}
	for p.NumSlots() <= slot {
		i := p.NumSlots()
		p.setNumSlots(i + 1)
		p.setSlot(i, deletedOff, 0)
	}
	off := p.freeOff()
	copy(p.B[off:], rec)
	p.setFreeOff(off + len(rec))
	p.setSlot(slot, off, len(rec))
	return nil
}

// usableSpace is free space plus reclaimable fragmentation. A page whose
// live records do not fit its record space has none, so compact never
// runs on one.
func (p Page) usableSpace() int {
	used := 0
	for i := 0; i < p.NumSlots(); i++ {
		if off, l := p.slot(i); off != deletedOff {
			if off < pageHeaderSize || off+l > p.freeOff() {
				return -1
			}
			used += l
		}
	}
	if used > p.freeOff()-pageHeaderSize {
		return -1
	}
	return len(p.B) - pageHeaderSize - p.NumSlots()*slotSize - used
}

// Record returns the record stored in slot i. The returned slice aliases
// the page buffer.
func (p Page) Record(i int) ([]byte, error) {
	if i < 0 || i >= p.NumSlots() {
		return nil, fmt.Errorf("%w: slot %d of %d", ErrBadSlot, i, p.NumSlots())
	}
	if !p.sane() {
		return nil, ErrPageCorrupt
	}
	off, l := p.slot(i)
	if off == deletedOff {
		return nil, fmt.Errorf("%w: slot %d deleted", ErrBadSlot, i)
	}
	if off < pageHeaderSize || off+l > p.freeOff() {
		return nil, ErrPageCorrupt
	}
	return p.B[off : off+l], nil
}

// Delete removes the record in slot i (the slot is reusable).
func (p Page) Delete(i int) error {
	if _, err := p.Record(i); err != nil {
		return err
	}
	p.setSlot(i, deletedOff, 0)
	return nil
}

// Update replaces the record in slot i, moving it within the page if the
// size changed.
func (p Page) Update(i int, rec []byte) error {
	if _, err := p.Record(i); err != nil {
		return err
	}
	off, l := p.slot(i)
	if len(rec) <= l {
		copy(p.B[off:], rec)
		p.setSlot(i, off, len(rec))
		return nil
	}
	// Grow: invalidate and re-place.
	p.setSlot(i, deletedOff, 0)
	if p.FreeSpace() < len(rec) {
		if p.usableSpace() < len(rec) {
			p.setSlot(i, off, l) // restore
			return ErrPageFull
		}
		p.compact()
	}
	noff := p.freeOff()
	copy(p.B[noff:], rec)
	p.setFreeOff(noff + len(rec))
	p.setSlot(i, noff, len(rec))
	return nil
}

// compact rewrites live records contiguously, reclaiming fragmentation.
// Callers first check usableSpace, which rejects corrupt pages.
func (p Page) compact() {
	type ent struct {
		slot, off, l int
	}
	var live []ent
	for i := 0; i < p.NumSlots(); i++ {
		if off, l := p.slot(i); off != deletedOff {
			live = append(live, ent{i, off, l})
		}
	}
	tmp := make([]byte, 0, len(p.B))
	for _, e := range live {
		tmp = append(tmp, p.B[e.off:e.off+e.l]...)
	}
	off := pageHeaderSize
	cur := 0
	for _, e := range live {
		copy(p.B[off:], tmp[cur:cur+e.l])
		p.setSlot(e.slot, off, e.l)
		off += e.l
		cur += e.l
	}
	p.setFreeOff(off)
}
