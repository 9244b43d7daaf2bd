package sched

import (
	"testing"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
)

// fakeDriver is a scripted GCDriver+WearLeveler for worker-loop tests.
type fakeDriver struct {
	regions int
	dirty   []int // pending GC steps per region
	gcSteps []int
	spread  []int
	wlSteps []int
	idle    []sim.WaitQueue
}

func (f *fakeDriver) Regions() int                   { return f.regions }
func (f *fakeDriver) GCWaiters(r int) *sim.WaitQueue { return &f.idle[r] }
func (f *fakeDriver) NeedsGC(r int) bool             { return f.dirty[r] > 0 }
func (f *fakeDriver) WearSpread(r int) int           { return f.spread[r] }

func (f *fakeDriver) GCStep(rq ioreq.Req, r int) (bool, error) {
	if rq.Class != ioreq.ClassGC {
		panic("maintenance request not declared GC class")
	}
	if f.dirty[r] == 0 {
		return false, nil
	}
	f.dirty[r]--
	f.gcSteps[r]++
	w := rq.W
	w.WaitUntil(w.Now() + 100*sim.Microsecond) // a step costs device time
	return true, nil
}

func (f *fakeDriver) WearLevelStep(rq ioreq.Req, r int) (bool, error) {
	if f.spread[r] == 0 {
		return false, nil
	}
	f.spread[r] = 0
	f.wlSteps[r]++
	w := rq.W
	w.WaitUntil(w.Now() + 500*sim.Microsecond)
	return true, nil
}

func TestMaintenanceDrivesGCAndWearSweep(t *testing.T) {
	k := sim.New()
	f := &fakeDriver{
		regions: 3,
		dirty:   []int{5, 0, 2},
		gcSteps: make([]int, 3),
		spread:  []int{0, 80, 10},
		wlSteps: make([]int, 3),
		idle:    make([]sim.WaitQueue, 3),
	}
	mt := StartMaintenance(k, f, MaintConfig{})
	k.RunFor(3 * sweepEvery)
	// Region 1 gets work: the volume wakes its idle worker, which steps at
	// once, one step per 100 µs.
	f.dirty[1] = 2
	f.idle[1].Wake()
	k.RunFor(150 * sim.Microsecond)
	if f.gcSteps[1] != 2 {
		t.Fatalf("region 1: %d steps 150 µs after its wake, want 2", f.gcSteps[1])
	}
	// Stop releases the idle workers at once and region 1's after the
	// step in flight (due at 150.2 ms); the sweep sleeps out its period
	// (due at 151 ms).
	mt.Stop()
	k.RunFor(100 * sim.Microsecond)
	if k.Alive() != 1 {
		t.Errorf("%d processes alive right after Stop, want only the sweep", k.Alive())
	}
	k.RunFor(5 * sim.Millisecond)
	if k.Alive() != 0 {
		t.Errorf("%d processes alive 5 ms after Stop, want 0", k.Alive())
	}
	k.Shutdown()

	if f.gcSteps[0] != 5 || f.gcSteps[1] != 2 || f.gcSteps[2] != 2 {
		t.Fatalf("gcSteps = %v, want [5 2 2]", f.gcSteps)
	}
	if mt.GCSteps != 9 {
		t.Fatalf("GCSteps = %d, want 9", mt.GCSteps)
	}
	// The sweep must clean the widest-spread region first, then the next.
	if f.wlSteps[1] != 1 || f.wlSteps[2] != 1 || f.wlSteps[0] != 0 {
		t.Fatalf("wlSteps = %v, want [0 1 1]", f.wlSteps)
	}
	if mt.WearMoves != 2 {
		t.Fatalf("WearMoves = %d, want 2", mt.WearMoves)
	}
}

func TestMaintenanceReportsErrors(t *testing.T) {
	k := sim.New()
	f := &failingDriver{}
	var got error
	mt := StartMaintenance(k, f, MaintConfig{OnError: func(err error) { got = err }})
	k.RunFor(5 * sim.Millisecond)
	mt.Stop()
	k.Shutdown()
	if got == nil {
		t.Fatal("worker error not reported")
	}
}

type failingDriver struct{ idle sim.WaitQueue }

func (*failingDriver) Regions() int                   { return 1 }
func (f *failingDriver) GCWaiters(int) *sim.WaitQueue { return &f.idle }
func (*failingDriver) NeedsGC(int) bool               { return true }
func (*failingDriver) GCStep(ioreq.Req, int) (bool, error) {
	return false, errBoom
}

var errBoom = errStr("boom")

type errStr string

func (e errStr) Error() string { return string(e) }
