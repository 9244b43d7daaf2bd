package ioreq

import (
	"testing"

	"noftl/internal/sim"
)

// The flight recorder's invariant: stage durations sum exactly to the
// end-to-end latency, with nesting, group-commit waits and scheduler
// transfers all in the mix.
func TestSpanStageSumEqualsLatency(t *testing.T) {
	sp := NewSpan(7, 3, 42)
	sp.Begin(100)
	// engine work 100..120
	sp.Enter(StageBuffer, 120)
	sp.Enter(StageVolume, 130)
	sp.Enter(StageSchedQ, 135)
	sp.Cmds++
	sp.Exit(200) // schedq 135..200
	sp.Transfer(StageSchedQ, StageDie, 40)
	sp.Exit(210) // volume: 130..135 + 200..210
	sp.Exit(215) // buffer: 120..130 + 210..215
	sp.Enter(StageWAL, 230)
	sp.Exit(300)
	sp.Finish(310)

	if got := sp.Latency(); got != 210 {
		t.Fatalf("latency = %d, want 210", got)
	}
	if got := stageSum(sp); got != sp.Latency() {
		t.Fatalf("stage sum %d != latency %d", got, sp.Latency())
	}
	want := [NumStages]sim.Time{
		StageEngine: 20 + 15 + 10, // 100..120, 215..230, 300..310
		StageBuffer: 10 + 5,
		StageWAL:    70,
		StageVolume: 5 + 10,
		StageSchedQ: 65 - 40,
		StageDie:    40,
	}
	if sp.Durations != want {
		t.Fatalf("durations = %v, want %v", sp.Durations, want)
	}
	if len(sp.Segs) != 4 {
		t.Fatalf("segments = %d, want 4", len(sp.Segs))
	}
}

func TestSpanFinishClosesOpenStages(t *testing.T) {
	sp := NewSpan(1, 0, 0)
	sp.Begin(0)
	sp.Enter(StageBuffer, 10)
	sp.Enter(StageVolume, 20)
	sp.Finish(50) // both stages still open
	if stageSum(sp) != sp.Latency() {
		t.Fatalf("stage sum %d != latency %d", stageSum(sp), sp.Latency())
	}
	if sp.Durations[StageVolume] != 30 || sp.Durations[StageBuffer] != 10 {
		t.Fatalf("durations = %v", sp.Durations)
	}
}

func TestSpanTransferClamps(t *testing.T) {
	sp := NewSpan(1, 0, 0)
	sp.Begin(0)
	sp.Enter(StageSchedQ, 0)
	sp.Exit(10)
	sp.Transfer(StageSchedQ, StageDie, 100) // more than the stage holds
	if sp.Durations[StageSchedQ] != 0 || sp.Durations[StageDie] != 10 {
		t.Fatalf("durations = %v", sp.Durations)
	}
}

// A nil span is inert: every instrumentation point may call through
// unguarded.
func TestSpanNilReceiver(t *testing.T) {
	var sp *Span
	sp.Begin(0)
	sp.Enter(StageWAL, 1)
	sp.Exit(2)
	sp.Transfer(StageWAL, StageDie, 1)
	sp.Finish(3)
	sp.Reset(1, 0, 0)
	if sp.Missed() || sp.Clone(nil) != nil {
		t.Fatal("nil span missed a deadline or cloned to a span")
	}
}

// The span travels on the descriptor through Waiter()/From() and class
// re-tagging.
func TestSpanRidesDescriptor(t *testing.T) {
	sp := NewSpan(9, 0, 0)
	r := Req{W: &sim.ClockWaiter{}, Span: sp}
	if !r.Intent() {
		t.Fatal("span alone should count as intent")
	}
	w := r.Waiter()
	if got := From(w).Span; got != sp {
		t.Fatalf("From lost the span: %v", got)
	}
	if got := From(WithClass(w, ClassGC)).Span; got != sp {
		t.Fatalf("WithClass lost the span: %v", got)
	}
}

func TestSpanMissed(t *testing.T) {
	sp := NewSpan(1, 0, 0)
	sp.Deadline = 100
	sp.Begin(0)
	sp.Finish(101)
	if !sp.Missed() {
		t.Fatal("span past deadline not missed")
	}
	sp2 := NewSpan(2, 0, 0)
	sp2.Deadline = 100
	sp2.Begin(0)
	sp2.Finish(99)
	if sp2.Missed() {
		t.Fatal("span within deadline reported missed")
	}
}

// TestSpanResetReusesMemory: a terminal's one span runs transaction
// after transaction without allocating, and Reset forgets everything
// but the identity it is given.
func TestSpanResetReusesMemory(t *testing.T) {
	sp := new(Span)
	var now sim.Time
	life := func() {
		sp.Reset(9, 2, 5)
		sp.Deadline = now + 50
		sp.Begin(now)
		sp.Enter(StageBuffer, now+10)
		sp.Enter(StageVolume, now+20)
		sp.Cmds++
		sp.Exit(now + 30)
		sp.Exit(now + 40)
		sp.Finish(now + 60)
		now += 100
	}
	life() // grows the segment list and the stage stack once
	if a := testing.AllocsPerRun(1000, life); a != 0 {
		t.Errorf("reused span lifecycle: %v allocs, want 0", a)
	}
	if sp.ID != 9 || sp.TID != 2 || sp.Tag != 5 || sp.Cmds != 1 || len(sp.Segs) != 2 || stageSum(sp) != 60 || !sp.Missed() {
		t.Errorf("after reuse: %+v", sp)
	}
}

// stageSum adds up sp's per-stage durations: Latency once the span is
// finished.
func stageSum(sp *Span) (sum sim.Time) {
	for _, d := range sp.Durations {
		sum += d
	}
	return sum
}
