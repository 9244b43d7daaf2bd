package noftl

import (
	"io"

	"noftl/internal/trace"
)

// Page-level I/O trace record & replay — the paper's off-line Figure-3
// methodology (record a workload's page stream on an in-memory volume,
// replay it against each flash-management scheme) as a public surface,
// so tools like cmd/tracereplay need no internal packages.

type (
	// IOTrace is a recorded page-level operation stream with its page
	// size; Encode/Decode round-trip the binary trace format.
	IOTrace = trace.Trace
	// TraceRecorder wraps an engine volume, recording every page
	// operation into its IOTrace while forwarding to the inner volume.
	TraceRecorder = trace.Recorder
	// ReplayTarget is anything an IOTrace can be replayed against.
	ReplayTarget = trace.Target
	// ReplayOptions controls a replay (trim handling, waiter).
	ReplayOptions = trace.ReplayOptions
	// VolumeReplayTarget adapts an engine volume (e.g. System.Vol) as a
	// replay target whose ops carry a full request descriptor.
	VolumeReplayTarget = trace.VolumeTarget
)

// NewTraceRecorder wraps inner, recording every page operation.
func NewTraceRecorder(inner EngineVolume) *TraceRecorder { return trace.NewRecorder(inner) }

// DecodeTrace reads a trace written by IOTrace.Encode.
func DecodeTrace(r io.Reader) (*IOTrace, error) { return trace.Decode(r) }

// NewVolumeReplayTarget adapts v as a replay target: every replayed op
// runs under ctx, so its request descriptor (class, tag, deadline,
// waiter) travels the stack exactly like live engine traffic — through
// the command scheduler when the system has one, visible to command
// logs and blame analysis.
func NewVolumeReplayTarget(v EngineVolume, ctx *IOCtx) VolumeReplayTarget {
	return trace.VolumeTarget{V: v, Ctx: ctx}
}

// ReplayTrace feeds t to the target; LPNs beyond the target's capacity
// wrap (traces may come from a larger volume).
func ReplayTrace(t *IOTrace, target ReplayTarget, opts ReplayOptions) error {
	return trace.Replay(t, target, opts)
}
