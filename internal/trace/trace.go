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
	"noftl/internal/stats"
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

// Target is anything a trace can be replayed against: ftl.FTL and
// blockdev.Device satisfy it directly; NoFTLTarget adapts noftl.Volume.
// Trims reach only a target that also has Trim (trimmer).
type Target interface {
	Read(w sim.Waiter, lpn int64, buf []byte) error
	Write(w sim.Waiter, lpn int64, data []byte) error
}

type trimmer interface {
	Trim(w sim.Waiter, lpn int64) error
}

// NoFTLTarget adapts a noftl.Volume as a replay target (Trim becomes the
// free-space manager's Invalidate).
type NoFTLTarget struct{ V *noftl.Volume }

// Read implements Target.
func (t NoFTLTarget) Read(w sim.Waiter, lpn int64, buf []byte) error {
	return t.V.Read(ioreq.Plain(w), lpn, buf)
}

// Write implements Target.
func (t NoFTLTarget) Write(w sim.Waiter, lpn int64, data []byte) error {
	return t.V.Write(ioreq.Plain(w), lpn, data)
}

// Trim hands a trace's trim to the volume's Invalidate.
func (t NoFTLTarget) Trim(w sim.Waiter, lpn int64) error { return t.V.Invalidate(lpn) }

var _ trimmer = (ftl.FTL)(nil)

// ReplayOptions controls a replay.
type ReplayOptions struct {
	// DropTrims replays without deallocation hints, modelling a stack
	// that cannot convey them (the legacy block interface).
	DropTrims bool
}

// Result is a replay's timing on its waiter's timeline.
type Result struct {
	Elapsed  sim.Time
	ReadLat  stats.Histogram
	WriteLat stats.Histogram
}

// Replay feeds the trace to the target and times every read and write on
// w, which experiences the replay's latency. Replays that follow one
// another on one device share one waiter, so each starts where the
// previous one left the dies. It does not wrap LPNs: one beyond the
// target's capacity fails the replay at that op (the target's own range
// check).
func Replay(t *Trace, target Target, w sim.Waiter, opts ReplayOptions) (*Result, error) {
	buf := make([]byte, t.PageSize)
	res := &Result{}
	start := w.Now()
	for i, op := range t.Ops {
		t0 := w.Now()
		var err error
		switch op.Kind {
		case OpRead:
			err = target.Read(w, op.LPN, buf)
			res.ReadLat.Add(w.Now() - t0)
		case OpWrite:
			err = target.Write(w, op.LPN, buf)
			res.WriteLat.Add(w.Now() - t0)
		case OpTrim:
			if opts.DropTrims {
				break
			}
			if tt, ok := target.(trimmer); ok {
				err = tt.Trim(w, op.LPN)
			} else {
				err = fmt.Errorf("target cannot trim")
			}
		default:
			err = fmt.Errorf("bad op kind")
		}
		if err != nil {
			return nil, fmt.Errorf("trace: op %d (%d on %d): %w", i, op.Kind, op.LPN, err)
		}
	}
	res.Elapsed = w.Now() - start
	return res, nil
}
