package noftl

// The public telemetry facade: request spans decomposing every commit's
// latency by layer, a unified metrics registry sampled on simulated
// time, a flight recorder for the slowest transactions and deadline
// misses, and exporters — Chrome trace-event JSON (load the file in
// Perfetto) and a machine-readable metrics dump. Experiments attach the
// pipeline through ExperimentParams.Telemetry; the system wires the
// registry over every layer it assembled and benchmark runners deliver
// each counted transaction's span to it.

import (
	"io"

	"noftl/internal/ioreq"
	"noftl/internal/sched"
	"noftl/internal/telemetry"
)

type (
	// TelemetryConfig tunes the pipeline (sample period, slowest-K
	// retention, deadline-miss ring, span retention for trace export).
	TelemetryConfig = telemetry.Config
	// Span is a request span: per-layer stage timings of one
	// transaction, riding the request descriptor from the terminal down
	// to the die queues.
	Span = ioreq.Span
)

// WriteTraceEvents exports a Chrome trace-event JSON file from a
// command log and the retained transaction spans; load it in Perfetto
// (ui.perfetto.dev) to see per-die command timelines and per-layer
// transaction stage breakdowns. Either argument may be empty/nil.
func WriteTraceEvents(w io.Writer, log *CmdLog, spans []*Span) error {
	var events []sched.Event
	if log != nil {
		events = log.Events
	}
	return telemetry.WriteTrace(w, events, spans)
}
