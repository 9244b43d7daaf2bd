// Package trace records and replays page-level I/O streams — the
// paper's off-line methodology for Figure 3: "traces were recorded on an
// in-memory database running the benchmarks", then replayed against each
// flash-management scheme to count its GC work.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/noftl"
	"noftl/internal/sim"
	"noftl/internal/storage"
)

// OpKind is the I/O operation type.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpTrim // page deallocation (only effective on trim-capable targets)
)

// Op is one traced page operation.
type Op struct {
	Kind OpKind
	LPN  int64
}

// Trace is a recorded operation stream with its page size.
type Trace struct {
	PageSize int
	Ops      []Op
}

// Counts returns (reads, writes, trims).
func (t *Trace) Counts() (reads, writes, trims int64) {
	for _, op := range t.Ops {
		switch op.Kind {
		case OpRead:
			reads++
		case OpWrite:
			writes++
		case OpTrim:
			trims++
		}
	}
	return
}

// Span returns one past the highest logical page the trace touches (1
// for an empty trace): the page count a replay target must export.
func (t *Trace) Span() int64 {
	maxLPN := int64(0)
	for _, op := range t.Ops {
		maxLPN = max(maxLPN, op.LPN)
	}
	return maxLPN + 1
}

const traceMagic = 0x4e6f46544c545243 // "NoFTLTRC"

// Encode writes the trace in the binary format.
func (t *Trace) Encode(w io.Writer) error {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint64(hdr, traceMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(t.PageSize))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(t.Ops)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 9)
	for _, op := range t.Ops {
		buf[0] = byte(op.Kind)
		binary.LittleEndian.PutUint64(buf[1:], uint64(op.LPN))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// maxPageSize bounds the page size Decode accepts: the header sizes
// Replay's page buffer, so a corrupt one must not reach it.
const maxPageSize = 1 << 20

// Decode reads a trace written by Encode. The input is untrusted (a
// file handed to cmd/tracereplay): a page size outside (0, 1 MiB], an
// unknown op kind or a negative LPN is an error naming the record.
func Decode(r io.Reader) (*Trace, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("trace: header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr) != traceMagic {
		return nil, errors.New("trace: bad magic")
	}
	pageSize := binary.LittleEndian.Uint64(hdr[8:])
	if pageSize == 0 || pageSize > maxPageSize {
		return nil, fmt.Errorf("trace: header: page size %d outside (0, %d]", pageSize, maxPageSize)
	}
	t := &Trace{PageSize: int(pageSize)}
	n := binary.LittleEndian.Uint64(hdr[16:])
	buf := make([]byte, 9)
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("trace: record %d of %d: %w", i, n, err)
		}
		op := Op{Kind: OpKind(buf[0]), LPN: int64(binary.LittleEndian.Uint64(buf[1:]))}
		if op.Kind < OpRead || op.Kind > OpTrim {
			return nil, fmt.Errorf("trace: record %d: unknown op kind %d", i, op.Kind)
		}
		if op.LPN < 0 {
			return nil, fmt.Errorf("trace: record %d: negative LPN %d", i, op.LPN)
		}
		t.Ops = append(t.Ops, op)
	}
	return t, nil
}

// Recorder is a storage.Volume wrapper that records every page operation
// while forwarding to an in-memory volume.
type Recorder struct {
	Inner storage.Volume
	T     Trace
}

// NewRecorder wraps inner.
func NewRecorder(inner storage.Volume) *Recorder {
	return &Recorder{Inner: inner, T: Trace{PageSize: inner.PageSize()}}
}

// PageSize implements storage.Volume.
func (r *Recorder) PageSize() int { return r.Inner.PageSize() }

// Pages implements storage.Volume.
func (r *Recorder) Pages() int64 { return r.Inner.Pages() }

// ReadPage implements storage.Volume.
func (r *Recorder) ReadPage(ctx *storage.IOCtx, id storage.PageID, buf []byte) error {
	r.T.Ops = append(r.T.Ops, Op{Kind: OpRead, LPN: int64(id)})
	return r.Inner.ReadPage(ctx, id, buf)
}

// WritePage implements storage.Volume.
func (r *Recorder) WritePage(ctx *storage.IOCtx, id storage.PageID, data []byte, h storage.WriteHint) error {
	r.T.Ops = append(r.T.Ops, Op{Kind: OpWrite, LPN: int64(id)})
	return r.Inner.WritePage(ctx, id, data, h)
}

// Deallocate implements storage.Volume.
func (r *Recorder) Deallocate(id storage.PageID) {
	r.T.Ops = append(r.T.Ops, Op{Kind: OpTrim, LPN: int64(id)})
	r.Inner.Deallocate(id)
}

// Regions implements storage.Volume.
func (r *Recorder) Regions() int { return r.Inner.Regions() }

// RegionOf implements storage.Volume.
func (r *Recorder) RegionOf(id storage.PageID) int { return r.Inner.RegionOf(id) }

// Target is anything a trace can be replayed against. ftl.FTL satisfies
// it directly; NoFTLTarget adapts noftl.Volume.
type Target interface {
	LogicalPages() int64
	Read(w sim.Waiter, lpn int64, buf []byte) error
	Write(w sim.Waiter, lpn int64, data []byte) error
	Trim(w sim.Waiter, lpn int64) error
}

// NoFTLTarget adapts a noftl.Volume as a replay target (Trim becomes the
// free-space manager's Invalidate).
type NoFTLTarget struct{ V *noftl.Volume }

// LogicalPages implements Target.
func (t NoFTLTarget) LogicalPages() int64 { return t.V.LogicalPages() }

// Read implements Target.
func (t NoFTLTarget) Read(w sim.Waiter, lpn int64, buf []byte) error {
	return t.V.Read(ioreq.Plain(w), lpn, buf)
}

// Write implements Target.
func (t NoFTLTarget) Write(w sim.Waiter, lpn int64, data []byte) error {
	return t.V.Write(ioreq.Plain(w), lpn, data)
}

// Trim implements Target.
func (t NoFTLTarget) Trim(w sim.Waiter, lpn int64) error { return t.V.Invalidate(lpn) }

var _ Target = (ftl.FTL)(nil)

// VolumeTarget adapts an engine-facing storage.Volume (e.g. a facade
// System's data volume) as a replay target. Every op runs under Ctx, so
// its request descriptor — class, tag, deadline, waiter — travels the
// stack exactly like live engine traffic: replayed commands queue at
// the scheduler and show up in command logs and blame reports. The
// per-op waiter argument is ignored in favor of Ctx's.
type VolumeTarget struct {
	V   storage.Volume
	Ctx *storage.IOCtx
}

// LogicalPages implements Target.
func (t VolumeTarget) LogicalPages() int64 { return t.V.Pages() }

// Read implements Target.
func (t VolumeTarget) Read(_ sim.Waiter, lpn int64, buf []byte) error {
	return t.V.ReadPage(t.Ctx, storage.PageID(lpn), buf)
}

// Write implements Target.
func (t VolumeTarget) Write(_ sim.Waiter, lpn int64, data []byte) error {
	return t.V.WritePage(t.Ctx, storage.PageID(lpn), data, storage.HintNone)
}

// Trim implements Target.
func (t VolumeTarget) Trim(_ sim.Waiter, lpn int64) error {
	t.V.Deallocate(storage.PageID(lpn))
	return nil
}

// ReplayOptions controls a replay.
type ReplayOptions struct {
	// DropTrims replays without deallocation hints, modelling a stack
	// that cannot convey them (the legacy block interface).
	DropTrims bool
	// Waiter experiences the replay's latency; nil uses a serial clock.
	Waiter sim.Waiter
}

// Replay feeds the trace to the target. LPNs beyond the target's
// capacity wrap (traces may come from a larger volume).
func Replay(t *Trace, target Target, opts ReplayOptions) error {
	w := opts.Waiter
	if w == nil {
		w = &sim.ClockWaiter{}
	}
	n := target.LogicalPages()
	if n <= 0 {
		return fmt.Errorf("trace: target has no capacity")
	}
	buf := make([]byte, t.PageSize)
	for i, op := range t.Ops {
		lpn := op.LPN % n
		var err error
		switch op.Kind {
		case OpRead:
			err = target.Read(w, lpn, buf)
		case OpWrite:
			err = target.Write(w, lpn, buf)
		case OpTrim:
			if !opts.DropTrims {
				err = target.Trim(w, lpn)
			}
		default:
			err = fmt.Errorf("trace: bad op kind %d", op.Kind)
		}
		if err != nil {
			return fmt.Errorf("trace: op %d (%d on %d): %w", i, op.Kind, lpn, err)
		}
	}
	return nil
}
