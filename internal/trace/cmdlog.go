package trace

import (
	"noftl/internal/sched"
	"noftl/internal/sim"
	"noftl/internal/stats"
)

// CmdLog collects native command-scheduler events (sched.Config.Trace)
// for offline latency analysis — the command-level counterpart of the
// page-level traces this package replays: one record per dispatched
// flash command with its class, die, queue wait and service window.
type CmdLog struct {
	Events []sched.Event
}

// Record appends one event; pass it as the scheduler's Trace hook.
func (l *CmdLog) Record(ev sched.Event) { l.Events = append(l.Events, ev) }

// ClassAgg holds one class's aggregated command log: how many commands
// it dispatched and its queue-wait and service-time distributions.
type ClassAgg struct {
	Count   int64
	Wait    stats.Histogram // arrival to dispatch
	Service stats.Histogram // dispatch to completion, suspensions included
}

// ByClass aggregates the whole log per class in one pass. Callers that
// need several classes — or both wait and service of one — should use
// it instead of repeated ClassWait/ClassService calls, each of which
// scans the full log.
func (l *CmdLog) ByClass() [sched.NumClasses]ClassAgg {
	var agg [sched.NumClasses]ClassAgg
	for _, ev := range l.Events {
		a := &agg[ev.Class]
		a.Count++
		a.Wait.Add(ev.Start - ev.Arrival)
		a.Service.Add(ev.End - ev.Start)
	}
	return agg
}

// ClassWait builds the queue-wait histogram of one class.
func (l *CmdLog) ClassWait(c sched.Class) *stats.Histogram {
	agg := l.ByClass()
	return &agg[c].Wait
}

// ClassService builds the service-time histogram (dispatch to
// completion, suspensions included) of one class.
func (l *CmdLog) ClassService(c sched.Class) *stats.Histogram {
	agg := l.ByClass()
	return &agg[c].Service
}

// TagWait builds the queue-wait histogram of one request stream tag —
// per-stream latency attribution across classes (a stream's foreground
// reads and the GC work it caused share its tag).
func (l *CmdLog) TagWait(tag uint32) *stats.Histogram {
	var h stats.Histogram
	for _, ev := range l.Events {
		if ev.Tag == tag {
			h.Add(ev.Start - ev.Arrival)
		}
	}
	return &h
}

// Suspends counts erase suspensions recorded in the log.
func (l *CmdLog) Suspends() int {
	n := 0
	for _, ev := range l.Events {
		n += ev.Suspends
	}
	return n
}

// Summary renders per-class command counts and wait/service
// distributions.
func (l *CmdLog) Summary() string {
	agg := l.ByClass()
	t := stats.NewTable("class", "cmds", "wait mean", "wait p99", "svc mean", "svc max")
	for c := sched.Class(0); c < sched.NumClasses; c++ {
		a := &agg[c]
		if a.Count == 0 {
			continue
		}
		t.Row(c.String(), a.Count, a.Wait.Mean().String(),
			a.Wait.Percentile(99).String(), a.Service.Mean().String(), a.Service.Max().String())
	}
	return t.String()
}

// Span returns the time window the log covers.
func (l *CmdLog) Span() (first, last sim.Time) {
	if len(l.Events) == 0 {
		return 0, 0
	}
	first = l.Events[0].Arrival
	for _, ev := range l.Events {
		if ev.End > last {
			last = ev.End
		}
	}
	return first, last
}
