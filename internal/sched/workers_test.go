package sched

import (
	"testing"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
)

// fakeDriver is a scripted GCDriver for worker-loop tests.
type fakeDriver struct {
	regions int
	dirty   []int // pending GC steps per region
	gcSteps []int
	idle    []sim.WaitQueue
}

func (f *fakeDriver) Regions() int                   { return f.regions }
func (f *fakeDriver) GCWaiters(r int) *sim.WaitQueue { return &f.idle[r] }
func (f *fakeDriver) NeedsGC(r int) bool             { return f.dirty[r] > 0 }

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

func TestMaintenanceDrivesGC(t *testing.T) {
	k := sim.New()
	f := &fakeDriver{
		regions: 3,
		dirty:   []int{5, 0, 2},
		gcSteps: make([]int, 3),
		idle:    make([]sim.WaitQueue, 3),
	}
	mt := StartMaintenance(k, f, MaintConfig{})
	if k.Alive() != f.regions {
		t.Fatalf("%d maintenance processes, want one per region (%d)", k.Alive(), f.regions)
	}
	k.RunFor(10 * sim.Millisecond)
	// Region 1 gets work: the volume wakes its idle worker, which steps at
	// once, one step per 100 µs.
	f.dirty[1] = 2
	f.idle[1].Wake()
	k.RunFor(150 * sim.Microsecond)
	if f.gcSteps[1] != 2 {
		t.Fatalf("region 1: %d steps 150 µs after its wake, want 2", f.gcSteps[1])
	}
	// Stop releases the idle workers at once and region 1's after the
	// step in flight (due 50 µs later).
	mt.Stop()
	k.RunFor(50 * sim.Microsecond)
	if k.Alive() != 0 {
		t.Errorf("%d processes alive right after Stop and the step in flight, want 0", k.Alive())
	}
	k.Shutdown()

	if f.gcSteps[0] != 5 || f.gcSteps[1] != 2 || f.gcSteps[2] != 2 {
		t.Fatalf("gcSteps = %v, want [5 2 2]", f.gcSteps)
	}
	if mt.GCSteps != 9 {
		t.Fatalf("GCSteps = %d, want 9", mt.GCSteps)
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
