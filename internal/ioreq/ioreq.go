// Package ioreq defines the cross-layer I/O request descriptor: the one
// piece of state that travels with a request from the workload layer,
// through the storage engine and host-side flash management, down to the
// per-die command scheduler.
//
// The NoFTL thesis is that layered storage stacks lose request semantics
// on the way down — the device sees a read, not "a commit-path log
// append with a 5 ms budget". The descriptor keeps that knowledge
// attached to the request itself:
//
//   - Class declares the scheduler priority class the request should
//     dispatch at. ClassDefault declares nothing: the command's op type
//     decides (read → read, program → program, erase and copyback →
//     GC; see sched.Scheduler.Dev).
//   - Tag names the request's stream (a terminal group, the
//     checkpointer, a GC worker), so per-stream latency attribution in
//     the command log is exact even when two streams share a class.
//   - Deadline is an optional promotion point: a Priority scheduler
//     serves a past-deadline command ahead of its class.
//
// Req is the only declaration of those fields and this package the only
// one that knows how a descriptor crosses the layers that speak plain
// sim.Waiter (flash.Dev and below): a *Req is itself a sim.Waiter, so
// the descriptor IS the waiter handed down, and the scheduler recovers
// it at the die queue (From). The engine's storage.IOCtx is this type
// under its engine-level name; a context-borne request goes down as a
// pointer to the context itself, with no per-call wrapper.
package ioreq

import "noftl/internal/sim"

// Class is a request's declared scheduler class. The values mirror the
// command scheduler's priority order (sched.Class) shifted by one:
// ClassDefault is the zero value and means "no declaration".
type Class uint8

// Request classes, highest priority first after the default.
const (
	// ClassDefault declares nothing: the command's op type decides
	// (sched.Scheduler.Dev).
	ClassDefault Class = iota
	// ClassRead is foreground page reads (query latency).
	ClassRead
	// ClassWAL is commit-path log appends.
	ClassWAL
	// ClassProgram is data-page programs and delta appends.
	ClassProgram
	// ClassPrefetch is speculative read-ahead.
	ClassPrefetch
	// ClassGC is garbage collection, folds, erases and wear moves.
	ClassGC
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassDefault:
		return "default"
	case ClassRead:
		return "read"
	case ClassWAL:
		return "wal"
	case ClassProgram:
		return "program"
	case ClassPrefetch:
		return "prefetch"
	case ClassGC:
		return "gc"
	default:
		return "Class(?)"
	}
}

// Req is the request descriptor: the waiter that experiences the
// request's latency plus the intent that travels with it. Host-side
// flash management (noftl.Volume, ftl.SeqLog, region rebuilds) takes it
// by value; the engine holds one per process as a *storage.IOCtx.
type Req struct {
	// W experiences the request's latency. It is mandatory: a descriptor
	// without one panics at its first I/O.
	W sim.Waiter
	// Class is the declared scheduler class (ClassDefault: the command's
	// op type decides).
	Class Class
	// Tag is the request's stream/transaction tag (0: untagged).
	Tag uint32
	// Deadline promotes the request's commands ahead of their class once
	// the simulated clock passes it (0: none).
	Deadline sim.Time
	// Span, when non-nil, is the request's telemetry span: layers on the
	// way down record stage timings on it (see span.go). It carries the
	// trace ID.
	Span *Span
}

// Plain wraps a bare waiter into an intent-free descriptor.
func Plain(w sim.Waiter) Req { return Req{W: w} }

// Intent reports whether the descriptor declares anything beyond the
// waiter.
func (r Req) Intent() bool {
	return r.Class != ClassDefault || r.Tag != 0 || r.Deadline != 0 || r.Span != nil
}

// WithClass returns the descriptor with its class replaced.
func (r Req) WithClass(c Class) Req {
	r.Class = c
	return r
}

// Now implements sim.Waiter: a *Req is the waiter lower layers are
// handed, experiencing latency on W.
func (r *Req) Now() sim.Time { return r.W.Now() }

// WaitUntil implements sim.Waiter.
func (r *Req) WaitUntil(ts sim.Time) { r.W.WaitUntil(ts) }

// Proc implements sim.Waiter.
func (r *Req) Proc() *sim.Proc { return r.W.Proc() }

// Waiter returns the waiter lower layers should be handed. An
// intent-free descriptor hands down W itself — the bare waiter, or the
// context a request rides on (storage.IOCtx.Req), so neither allocates.
// A by-value descriptor that declares intent goes down as a copy of
// itself; its declaration replaces one already riding on W, so a *Req
// never nests inside a *Req.
func (r Req) Waiter() sim.Waiter {
	if !r.Intent() {
		return r.W
	}
	// The copy escapes, not the parameter, so the intent-free path above
	// stays allocation-free.
	d := r
	if in, ok := r.W.(*Req); ok {
		d.W = in.W
	}
	return &d
}

// From recovers the descriptor riding on a waiter: the *Req's fields, or
// an intent-free descriptor around w itself.
func From(w sim.Waiter) Req {
	if r, ok := w.(*Req); ok {
		return *r
	}
	return Req{W: w}
}

// WithClass returns w re-tagged to class c, preserving any tag, deadline
// and span already riding on it. Host-side maintenance uses it to keep
// induced traffic (GC copies, truncation erases, salvage) in the GC
// class while still attributing it to the stream that caused it.
func WithClass(w sim.Waiter, c Class) sim.Waiter {
	if r, ok := w.(*Req); ok && r.Class == c {
		return w
	}
	r := From(w)
	r.Class = c
	return &r
}
