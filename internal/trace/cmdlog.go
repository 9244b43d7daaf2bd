package trace

import "noftl/internal/sched"

// CmdLog collects native command-scheduler events (sched.Config.Trace)
// for offline latency analysis — the command-level counterpart of the
// page-level traces this package replays: one record per dispatched
// flash command with its class, die, queue wait and service window.
// The blame engine and the Perfetto exporter read Events.
type CmdLog struct {
	Events []sched.Event
}

// Record appends one event; pass it as the scheduler's Trace hook.
func (l *CmdLog) Record(ev sched.Event) { l.Events = append(l.Events, ev) }
