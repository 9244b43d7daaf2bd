package ioreq

import "noftl/internal/sim"

// Request spans: the telemetry side of the cross-layer descriptor. A
// Span rides on the descriptor (Req.Span) and collects timestamped stage events as the
// request crosses the stack — engine, buffer pool, WAL flush, volume,
// scheduler queue, die service — so one commit's end-to-end latency
// decomposes exactly into per-layer durations.
//
// Attribution is stack-based and exclusive: elapsed time always goes to
// the innermost open stage, and time with no stage open goes to the
// root (StageEngine). Because every interval between Begin and Finish
// is attributed exactly once, the per-stage durations sum to the
// span's end-to-end latency to the tick — the invariant the flight
// recorder's breakdowns rely on. Transfer moves already-attributed time
// between stages (the scheduler splits its queue stage into queue wait
// and die service after the command completes, when both are known).
//
// Spans live on single-process request paths (one terminal's
// transaction), so they need no locking under the cooperative DES
// kernel. Every method is nil-receiver-safe: instrumentation points
// call through without guarding, and a stack with telemetry off pays
// one nil check per call site.

// Stage names one layer of a request's path through the stack.
type Stage uint8

// Span stages, outermost first. StageEngine is the root: time not
// spent in any opened stage (lock waits, engine CPU, think) lands
// there.
const (
	// StageEngine is the residual root stage: transaction logic, lock
	// waits, everything not inside an opened stage.
	StageEngine Stage = iota
	// StageBuffer is buffer-pool work (Pin: hit bookkeeping, victim
	// eviction, miss handling) excluding the nested volume read.
	StageBuffer
	// StageWAL is log flushing on the commit path, including group-
	// commit waits behind another process's flush.
	StageWAL
	// StageVolume is host-side flash management (mapping, placement,
	// inline GC) excluding time queued at the command scheduler.
	StageVolume
	// StageSchedQ is time queued at a die's command scheduler before
	// dispatch.
	StageSchedQ
	// StageDie is die service time (command execution, suspension
	// windows included).
	StageDie
	// NumStages bounds the stage space.
	NumStages
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageEngine:
		return "engine"
	case StageBuffer:
		return "buffer"
	case StageWAL:
		return "wal"
	case StageVolume:
		return "volume"
	case StageSchedQ:
		return "sched-queue"
	case StageDie:
		return "die"
	default:
		return "Stage(?)"
	}
}

// SpanSeg is one closed stage interval, recorded on Exit for trace
// exporters (segments nest: a WAL segment contains the volume segments
// of the pages it flushed).
type SpanSeg struct {
	Stage    Stage
	From, To sim.Time
}

// maxSpanSegs bounds the per-span segment list so a pathological
// transaction cannot balloon the trace; stage durations keep
// accumulating past the cap.
const maxSpanSegs = 512

type stageFrame struct {
	st Stage
	at sim.Time
}

// Span is one request's (typically one transaction's) cross-layer
// trace: identity, deadline, and the exact decomposition of its
// latency by stage.
type Span struct {
	// ID is the trace ID, unique within a run (terminals derive it
	// deterministically from their ID and a sequence number).
	ID uint64
	// TID is the originating track (terminal) — the exporter's thread.
	TID int
	// Tag is the request's stream/tenant tag (0: untagged).
	Tag uint32
	// Deadline is the transaction's completion deadline (0: none).
	Deadline sim.Time
	// Start and End bound the span (Begin/Finish).
	Start, End sim.Time
	// Cmds counts flash commands dispatched under this span at a
	// command scheduler.
	Cmds int64
	// Durations is the exclusive per-stage time decomposition; its sum
	// equals End-Start once finished.
	Durations [NumStages]sim.Time
	// Segs are the closed stage intervals, innermost stages nested
	// within outer ones (bounded; see maxSpanSegs).
	Segs []SpanSeg

	stack []stageFrame
	mark  sim.Time
}

// NewSpan allocates a span with its identity fields set.
func NewSpan(id uint64, tid int, tag uint32) *Span {
	return &Span{ID: id, TID: tid, Tag: tag}
}

// Reset makes s a fresh span with its identity fields set, keeping the
// memory of its segment list and stage stack: a terminal reuses one span
// for every transaction it runs.
func (s *Span) Reset(id uint64, tid int, tag uint32) {
	if s == nil {
		return
	}
	*s = Span{ID: id, TID: tid, Tag: tag, Segs: s.Segs[:0], stack: s.stack[:0]}
}

// Clone copies s into dst, reusing dst's segment memory, and returns
// dst; with dst nil it allocates the copy. A sink that keeps a span past
// its return keeps a clone, since the sender reuses the span. A nil span
// clones to nil.
func (s *Span) Clone(dst *Span) *Span {
	if s == nil {
		return nil
	}
	if dst == nil {
		dst = new(Span)
	}
	segs, stack := append(dst.Segs[:0], s.Segs...), append(dst.stack[:0], s.stack...)
	*dst = *s
	dst.Segs, dst.stack = segs, stack
	return dst
}

// Begin opens the span at now.
func (s *Span) Begin(now sim.Time) {
	if s == nil {
		return
	}
	s.Start, s.mark = now, now
}

// attribute charges [mark, now) to the innermost open stage (the root
// StageEngine with none open) and advances the mark.
func (s *Span) attribute(now sim.Time) {
	st := StageEngine
	if n := len(s.stack); n > 0 {
		st = s.stack[n-1].st
	}
	if d := now - s.mark; d > 0 {
		s.Durations[st] += d
	}
	s.mark = now
}

// Enter opens a stage at now. Stages nest; time since the last event
// is charged to the stage being left open underneath.
func (s *Span) Enter(st Stage, now sim.Time) {
	if s == nil {
		return
	}
	s.attribute(now)
	s.stack = append(s.stack, stageFrame{st: st, at: now})
}

// Exit closes the innermost open stage at now and records its segment.
func (s *Span) Exit(now sim.Time) {
	if s == nil || len(s.stack) == 0 {
		return
	}
	s.attribute(now)
	fr := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	if len(s.Segs) < maxSpanSegs {
		s.Segs = append(s.Segs, SpanSeg{Stage: fr.st, From: fr.at, To: now})
	}
}

// Transfer moves already-attributed time from one stage to another,
// clamped to what the source stage holds — the scheduler uses it to
// split its queue stage into queue wait and die service once the
// command's dispatch time is known. The stage sum is preserved.
func (s *Span) Transfer(from, to Stage, d sim.Time) {
	if s == nil || d <= 0 {
		return
	}
	if d > s.Durations[from] {
		d = s.Durations[from]
	}
	s.Durations[from] -= d
	s.Durations[to] += d
}

// Finish closes every open stage and the span itself at now; the
// residual lands in StageEngine, so the stage durations sum exactly to
// Latency.
func (s *Span) Finish(now sim.Time) {
	if s == nil {
		return
	}
	for len(s.stack) > 0 {
		s.Exit(now)
	}
	s.attribute(now)
	s.End = now
}

// Latency is the span's end-to-end duration.
func (s *Span) Latency() sim.Time {
	if s == nil {
		return 0
	}
	return s.End - s.Start
}

// Missed reports whether the span finished past its deadline.
func (s *Span) Missed() bool {
	return s != nil && s.Deadline > 0 && s.End > s.Deadline
}
