package storage

import (
	"errors"
	"fmt"

	"noftl/internal/blockdev"
	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/noftl"
)

// spanVolume brackets one volume/log call in the span's volume stage.
// Scheduler-queue time nests inside it (the scheduler enters its own stage),
// so the volume stage ends up holding only mapping and device work done
// outside the die queues.
func spanVolume(ctx *IOCtx, fn func() error) error {
	sp := ctx.Span
	if sp == nil {
		return fn()
	}
	sp.Enter(ioreq.StageVolume, ctx.W.Now())
	err := fn()
	sp.Exit(ctx.W.Now())
	return err
}

// NoFTLVolume adapts a noftl.Volume to the engine: deallocations reach
// the garbage collector, regions expose the die layout for db-writer
// association, and placement hints steer hot/cold frontiers.
type NoFTLVolume struct {
	V        *noftl.Volume
	pageSize int
}

// NewNoFTLVolume wraps v.
func NewNoFTLVolume(v *noftl.Volume) *NoFTLVolume {
	return &NoFTLVolume{V: v, pageSize: v.Identify().Geometry.PageSize}
}

// PageSize implements Volume.
func (n *NoFTLVolume) PageSize() int { return n.pageSize }

// Pages implements Volume.
func (n *NoFTLVolume) Pages() int64 { return n.V.LogicalPages() }

// ReadPage implements Volume. The context itself rides down to the die
// queues as the waiter (IOCtx.Req).
func (n *NoFTLVolume) ReadPage(ctx *IOCtx, id PageID, buf []byte) error {
	return spanVolume(ctx, func() error { return n.V.Read(ctx.Req(), int64(id), buf) })
}

// WritePage implements Volume.
func (n *NoFTLVolume) WritePage(ctx *IOCtx, id PageID, data []byte, hint WriteHint) error {
	return spanVolume(ctx, func() error { return n.V.WriteHint(ctx.Req(), int64(id), data, hint) })
}

// WriteDeltaPage implements DeltaVolume: the differential is appended
// in place on native flash (partial-page program into a shared delta
// page), the contribution-iv path — flash traffic proportional to the
// bytes the DBMS actually changed.
func (n *NoFTLVolume) WriteDeltaPage(ctx *IOCtx, id PageID, payload []byte) error {
	return spanVolume(ctx, func() error { return n.V.WriteDelta(ctx.Req(), int64(id), payload) })
}

// Deallocate implements Volume: the free-space manager's dead-page
// knowledge flows straight into the flash GC (§3, contribution iii).
func (n *NoFTLVolume) Deallocate(id PageID) { _ = n.V.Invalidate(int64(id)) }

// Regions implements Volume.
func (n *NoFTLVolume) Regions() int { return n.V.Regions() }

// RegionOf implements Volume.
func (n *NoFTLVolume) RegionOf(id PageID) int { return n.V.RegionOf(int64(id)) }

// BlockVolume adapts a legacy block device. Deallocate is a no-op — the
// interface cannot express it — and the physical layout is opaque, so
// there is a single region.
type BlockVolume struct {
	D        *blockdev.Device
	pageSize int
}

// NewBlockVolume wraps d; pageSize must match the device's logical page.
func NewBlockVolume(d *blockdev.Device, pageSize int) *BlockVolume {
	return &BlockVolume{D: d, pageSize: pageSize}
}

// PageSize implements Volume.
func (b *BlockVolume) PageSize() int { return b.pageSize }

// Pages implements Volume.
func (b *BlockVolume) Pages() int64 { return b.D.Pages() }

// ReadPage implements Volume. The legacy block interface has no way to
// carry the request descriptor (class, tag, deadline) — exactly the
// semantic loss the NoFTL architecture removes — so only the waiter
// crosses it.
func (b *BlockVolume) ReadPage(ctx *IOCtx, id PageID, buf []byte) error {
	return spanVolume(ctx, func() error { return b.D.Read(ctx.W, int64(id), buf) })
}

// WritePage implements Volume.
func (b *BlockVolume) WritePage(ctx *IOCtx, id PageID, data []byte, _ WriteHint) error {
	return spanVolume(ctx, func() error { return b.D.Write(ctx.W, int64(id), data) })
}

// Deallocate implements Volume: silently dropped, as on real SATA-era
// block devices — the FTL will keep copying the dead page during GC.
func (b *BlockVolume) Deallocate(PageID) {}

// Regions implements Volume.
func (b *BlockVolume) Regions() int { return 1 }

// RegionOf implements Volume.
func (b *BlockVolume) RegionOf(PageID) int { return 0 }

// FlashLog adapts a native sequential log region (ftl.SeqLog) to the
// WAL's AppendLog interface: the engine declares "this stream is a log"
// and the region's whole management policy — block-granular mapping,
// truncation instead of GC — follows from that declaration.
type FlashLog struct {
	L *ftl.SeqLog
}

// NewFlashLog wraps l.
func NewFlashLog(l *ftl.SeqLog) *FlashLog { return &FlashLog{L: l} }

// PageSize implements AppendLog.
func (f *FlashLog) PageSize() int { return f.L.PageSize() }

// Pages implements AppendLog.
func (f *FlashLog) Pages() int64 { return f.L.CapacityPages() }

// Append implements AppendLog. Region exhaustion surfaces as ErrLogFull
// so the engine's checkpoint machinery treats it like a wrapped log.
func (f *FlashLog) Append(ctx *IOCtx, data []byte) (int64, error) {
	var pos int64
	err := spanVolume(ctx, func() error {
		var err error
		pos, err = f.L.Append(ctx.Req(), data)
		return err
	})
	if errors.Is(err, ftl.ErrLogSpace) {
		return 0, fmt.Errorf("%w: %v", ErrLogFull, err)
	}
	return pos, err
}

// Scan implements AppendLog: the window in position order.
func (f *FlashLog) Scan(ctx *IOCtx, fn func(int64, []byte) error) error {
	head, next := f.Bounds()
	buf := make([]byte, f.PageSize())
	for pos := head; pos < next; pos++ {
		if err := spanVolume(ctx, func() error { return f.L.ReadAt(ctx.Req(), pos, buf) }); err != nil {
			return err
		}
		if err := fn(pos, buf); err != nil {
			return err
		}
	}
	return nil
}

// Truncate implements AppendLog.
func (f *FlashLog) Truncate(ctx *IOCtx, keepFrom int64) error {
	return spanVolume(ctx, func() error { return f.L.Truncate(ctx.Req(), keepFrom) })
}

// Bounds implements AppendLog.
func (f *FlashLog) Bounds() (int64, int64) { return f.L.Bounds() }
