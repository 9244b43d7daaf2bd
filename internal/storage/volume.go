package storage

import (
	"fmt"

	"noftl/internal/delta"
	"noftl/internal/ioreq"
	"noftl/internal/noftl"
	"noftl/internal/sim"
)

// IOCtx is the request descriptor (ioreq.Req) under its engine-level
// name: the Waiter that experiences an I/O's latency plus the intent
// (scheduler class, stream tag, deadline, telemetry span) that travels
// with every command the request causes, down to the per-die queues.
// The engine holds contexts by pointer, one per process; the volume and
// log adapters hand that pointer down as the waiter (Req), so the
// context is the descriptor the scheduler reads at submit — a Deadline
// or Span a terminal sets between transactions is what the next command
// carries. A context is mandatory on every engine call and W on every
// context: a nil *IOCtx or a zero-value IOCtx{} panics at its first I/O.
type IOCtx ioreq.Req

// NewIOCtx wraps a waiter into an intent-free context. A nil waiter
// gets a private serial clock — the one place a missing waiter is
// substituted (unit tests with no timeline of their own).
func NewIOCtx(w sim.Waiter) *IOCtx {
	if w == nil {
		w = &sim.ClockWaiter{}
	}
	return &IOCtx{W: w}
}

// WithClass returns a derived context declaring the scheduler class.
func (c *IOCtx) WithClass(cl ioreq.Class) *IOCtx {
	d := *c
	d.Class = cl
	return &d
}

// WithTag returns a derived context carrying the stream tag.
func (c *IOCtx) WithTag(tag uint32) *IOCtx {
	d := *c
	d.Tag = tag
	return &d
}

// Req is the descriptor handed to host-side flash management
// (noftl.Volume, ftl.SeqLog): the context itself riding as the waiter,
// so handing a request down allocates nothing.
func (c *IOCtx) Req() ioreq.Req { return ioreq.Plain((*ioreq.Req)(c)) }

// WriteHint is the placement hint of the native volume under the
// engine's names.
type WriteHint = noftl.Hint

// Engine-level placement hints. HintHotData marks frequently updated
// pages (indexes, re-flushed heap pages), HintColdData bulk-created
// pages written once (loads, history appends), HintLog sequential
// log-stream pages — each maps to its own write frontier on volumes
// that honor placement.
const (
	HintHotData  = noftl.HintHot
	HintColdData = noftl.HintCold
	HintLog      = noftl.HintLog
)

// Volume is the engine's view of a storage device: a linear space of
// fixed-size logical pages. Implementations: NoFTLVolume (native flash),
// BlockVolume (legacy FTL device), MemVolume (RAM, trace recording).
type Volume interface {
	// PageSize returns the page size in bytes.
	PageSize() int
	// Pages returns the logical capacity in pages.
	Pages() int64
	// ReadPage fills buf with the page's contents.
	ReadPage(ctx *IOCtx, id PageID, buf []byte) error
	// WritePage stores a new version of the page.
	WritePage(ctx *IOCtx, id PageID, data []byte, hint WriteHint) error
	// Deallocate declares the page's contents dead. Volumes over legacy
	// block devices have no way to convey this (the interface has no such
	// command) and ignore it; the NoFTL volume forwards it to the GC.
	Deallocate(id PageID)
	// Regions reports the number of independent physical regions (dies)
	// the volume spans; legacy volumes report 1 (the physical layout is
	// hidden behind the FTL).
	Regions() int
	// RegionOf maps a page to its region (always 0 for legacy volumes).
	RegionOf(id PageID) int
}

// DeltaVolume is the optional capability of volumes that accept
// page-differential writes: WriteDeltaPage applies a delta.Encode
// payload to the page's current contents instead of storing a full
// image. The NoFTL volume implements it with in-place appends on native
// flash; legacy block devices cannot express it (the block interface has
// no such command — the same asymmetry as Deallocate).
type DeltaVolume interface {
	Volume
	WriteDeltaPage(ctx *IOCtx, id PageID, payload []byte) error
}

// MemVolume is an in-memory volume, used for unit tests and for the
// paper's trace-recording methodology ("traces were recorded on an
// in-memory database"). It is not safe for concurrent use.
type MemVolume struct {
	pageSize int
	pages    [][]byte
}

// NewMemVolume creates an in-memory volume.
func NewMemVolume(pageSize int, pages int64) *MemVolume {
	return &MemVolume{pageSize: pageSize, pages: make([][]byte, pages)}
}

// PageSize implements Volume.
func (v *MemVolume) PageSize() int { return v.pageSize }

// Pages implements Volume.
func (v *MemVolume) Pages() int64 { return int64(len(v.pages)) }

// ReadPage implements Volume.
func (v *MemVolume) ReadPage(ctx *IOCtx, id PageID, buf []byte) error {
	if err := v.check(id, buf); err != nil {
		return err
	}
	if p := v.pages[id]; p != nil {
		copy(buf, p)
	} else {
		for i := range buf {
			buf[i] = 0
		}
	}
	return nil
}

// WritePage implements Volume.
func (v *MemVolume) WritePage(ctx *IOCtx, id PageID, data []byte, _ WriteHint) error {
	if err := v.check(id, data); err != nil {
		return err
	}
	if v.pages[id] == nil {
		v.pages[id] = make([]byte, v.pageSize)
	}
	copy(v.pages[id], data)
	return nil
}

// WriteDeltaPage implements DeltaVolume: the differential is applied to
// the stored page in place (memory has no write-amplification to save,
// but unit tests exercise the engine's delta path against it).
func (v *MemVolume) WriteDeltaPage(ctx *IOCtx, id PageID, payload []byte) error {
	if id < 0 || int64(id) >= int64(len(v.pages)) {
		return fmt.Errorf("storage: page %d out of range (%d pages)", id, len(v.pages))
	}
	if v.pages[id] == nil {
		v.pages[id] = make([]byte, v.pageSize)
	}
	return delta.Apply(v.pages[id], payload)
}

// Deallocate implements Volume. The page reads as zeros again but keeps
// its memory, so a rewritten page — a log ring's next lap — allocates
// nothing.
func (v *MemVolume) Deallocate(id PageID) {
	if id >= 0 && int64(id) < int64(len(v.pages)) {
		clear(v.pages[id])
	}
}

// Regions implements Volume.
func (v *MemVolume) Regions() int { return 1 }

// RegionOf implements Volume.
func (v *MemVolume) RegionOf(PageID) int { return 0 }

// SubVolume is a contiguous window [off, off+n) of another volume,
// exposed as a volume of its own. It lets one physical volume host
// several logical spaces — e.g. a WAL window and a data window carved
// from a single-policy NoFTL volume (the configuration the regions
// ablation compares against region-managed placement).
type SubVolume struct {
	inner Volume
	off   int64
	n     int64
}

// NewSubVolume carves the window [off, off+n) out of v.
func NewSubVolume(v Volume, off, n int64) (Volume, error) {
	if off < 0 || n <= 0 || off+n > v.Pages() {
		return nil, fmt.Errorf("storage: subvolume [%d,%d) outside %d pages", off, off+n, v.Pages())
	}
	return &SubVolume{inner: v, off: off, n: n}, nil
}

// PageSize implements Volume.
func (s *SubVolume) PageSize() int { return s.inner.PageSize() }

// Pages implements Volume.
func (s *SubVolume) Pages() int64 { return s.n }

func (s *SubVolume) check(id PageID) error {
	if id < 0 || int64(id) >= s.n {
		return fmt.Errorf("storage: page %d out of range (%d pages)", id, s.n)
	}
	return nil
}

// ReadPage implements Volume.
func (s *SubVolume) ReadPage(ctx *IOCtx, id PageID, buf []byte) error {
	if err := s.check(id); err != nil {
		return err
	}
	return s.inner.ReadPage(ctx, id+PageID(s.off), buf)
}

// WritePage implements Volume.
func (s *SubVolume) WritePage(ctx *IOCtx, id PageID, data []byte, hint WriteHint) error {
	if err := s.check(id); err != nil {
		return err
	}
	return s.inner.WritePage(ctx, id+PageID(s.off), data, hint)
}

// Deallocate implements Volume.
func (s *SubVolume) Deallocate(id PageID) {
	if s.check(id) == nil {
		s.inner.Deallocate(id + PageID(s.off))
	}
}

// Regions implements Volume.
func (s *SubVolume) Regions() int { return s.inner.Regions() }

// RegionOf implements Volume.
func (s *SubVolume) RegionOf(id PageID) int { return s.inner.RegionOf(id + PageID(s.off)) }

func (v *MemVolume) check(id PageID, buf []byte) error {
	if id < 0 || int64(id) >= int64(len(v.pages)) {
		return fmt.Errorf("storage: page %d out of range (%d pages)", id, len(v.pages))
	}
	if len(buf) != v.pageSize {
		return fmt.Errorf("storage: buffer %d bytes, page size %d", len(buf), v.pageSize)
	}
	return nil
}
