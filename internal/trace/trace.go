// Package trace records and replays page-level I/O streams — the
// paper's off-line methodology for Figure 3: "traces were recorded on an
// in-memory database running the benchmarks", then replayed against each
// flash-management scheme to count its GC work.
package trace

import (
	"fmt"

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
