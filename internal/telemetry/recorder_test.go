package telemetry

import (
	"testing"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
)

// TestRecorderKeepsCopies: terminals reuse one span, so what the flight
// recorder and RetainSpans keep must survive the sender overwriting it
// after the sink returns.
func TestRecorderKeepsCopies(t *testing.T) {
	tel := New(Config{SlowestK: 2, RetainSpans: true})
	sp := new(ioreq.Span)
	for i, lat := range []sim.Time{30, 10, 20} {
		sp.Reset(uint64(i), 0, 7)
		sp.Deadline = 15 // the 30 and 20 spans miss
		sp.Begin(0)
		sp.Enter(ioreq.StageWAL, 0)
		sp.Exit(lat)
		sp.Finish(lat)
		tel.RecordSpan(sp)
	}
	sp.Reset(99, 0, 0) // the sender's next transaction
	sp.Finish(1000)
	ids := func(spans []*ioreq.Span) (out []uint64) {
		for _, s := range spans {
			if stageSum(s) != s.Latency() || len(s.Segs) != 1 || s.Segs[0].To != s.Latency() {
				t.Errorf("span %d lost its breakdown: %+v", s.ID, s)
			}
			out = append(out, s.ID)
		}
		return out
	}
	if got := ids(tel.Recorder().Slowest()); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("slowest = %v, want [0 2]", got)
	}
	if got := ids(tel.Recorder().Misses(7)); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("misses = %v, want [0 2]", got)
	}
	if got := ids(tel.Spans()); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("retained = %v, want [0 1 2]", got)
	}
}

// TestRecorderReusesDisplacedSpans: a full miss ring and a full
// slowest list make each new copy in the span it drops.
func TestRecorderReusesDisplacedSpans(t *testing.T) {
	fr := NewFlightRecorder(4)
	sp := new(ioreq.Span)
	record := func(id uint64) {
		sp.Reset(id, 0, 3)
		sp.Deadline = 1
		sp.Begin(0)
		sp.Finish(sim.Time(id) + 2) // later spans are slower and all miss
		fr.Record(sp)
	}
	for id := range uint64(missRing + 40) {
		record(id)
	}
	misses := fr.Misses(3)
	if len(misses) != missRing || misses[0].ID != 40 || misses[missRing-1].ID != missRing+39 {
		t.Fatalf("miss ring holds %d spans, %d..%d; want %d, 40..%d", len(misses), misses[0].ID, misses[len(misses)-1].ID, missRing, missRing+39)
	}
	if slow := fr.Slowest(); len(slow) != 4 || slow[0].ID != missRing+39 || slow[3].ID != missRing+36 {
		t.Fatalf("slowest = %d spans from %d", len(slow), slow[0].ID)
	}
	id := uint64(missRing + 40)
	if a := testing.AllocsPerRun(100, func() { record(id); id++ }); a != 0 {
		t.Errorf("recording into a full recorder: %v allocs, want 0", a)
	}
}

// stageSum adds up sp's per-stage durations: Latency once the span is
// finished.
func stageSum(sp *ioreq.Span) (sum sim.Time) {
	for _, d := range sp.Durations {
		sum += d
	}
	return sum
}
