package trace

import (
	"testing"

	"noftl/internal/sched"
	"noftl/internal/sim"
)

// TestCmdLogAggregation: the log keeps every recorded event, unchanged,
// in dispatch (Record) order.
func TestCmdLogAggregation(t *testing.T) {
	events := []sched.Event{
		{Die: 0, Class: sched.ClassRead, Op: "read",
			Arrival: 0, Start: 10 * sim.Microsecond, End: 40 * sim.Microsecond},
		{Die: 1, Class: sched.ClassGC, Op: "erase",
			Arrival: 0, Start: 0, End: 1500 * sim.Microsecond, Suspends: 2},
		{Die: 0, Class: sched.ClassRead, Op: "read", Tag: 7,
			Arrival: 5 * sim.Microsecond, Start: 45 * sim.Microsecond, End: 80 * sim.Microsecond},
	}
	var l CmdLog
	for _, ev := range events {
		l.Record(ev)
	}
	if len(l.Events) != len(events) {
		t.Fatalf("logged %d events, recorded %d", len(l.Events), len(events))
	}
	for i := range events {
		if l.Events[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, l.Events[i], events[i])
		}
	}
}
