package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{Microsecond, "1.000µs"},
		{1500 * Nanosecond, "1.500µs"},
		{Millisecond, "1.000ms"},
		{2500 * Microsecond, "2.500ms"},
		{Second, "1.000s"},
		{-Millisecond, "-1.000ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeSeconds(t *testing.T) {
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds() = %v, want 2.5", got)
	}
}

func TestEventOrdering(t *testing.T) {
	k := New()
	var order []int
	k.After(20, func() { order = append(order, 2) })
	k.After(10, func() { order = append(order, 1) })
	k.After(20, func() { order = append(order, 3) }) // same time: insertion order
	k.After(30, func() { order = append(order, 4) })
	k.Run()
	want := []int{1, 2, 3, 4}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("event order = %v, want %v", order, want)
	}
	if k.Now() != 30 {
		t.Errorf("Now() = %v, want 30", k.Now())
	}
}

func TestNegativeDelayFiresNow(t *testing.T) {
	k := New()
	fired := false
	k.After(-5, func() { fired = true })
	k.Run()
	if !fired || k.Now() != 0 {
		t.Errorf("negative delay: fired=%v now=%v, want true 0", fired, k.Now())
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := New()
	hits := 0
	k.After(10, func() { hits++ })
	k.After(100, func() { hits++ })
	k.RunUntil(50)
	if hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	if k.Now() != 50 {
		t.Fatalf("Now() = %v, want 50", k.Now())
	}
	if k.pending != 1 {
		t.Fatalf("pending = %d, want 1", k.pending)
	}
	k.RunFor(50)
	if hits != 2 || k.Now() != 100 {
		t.Fatalf("after RunFor: hits=%d now=%v, want 2 100", hits, k.Now())
	}
}

func TestProcSleep(t *testing.T) {
	k := New()
	var wakes []Time
	k.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Microsecond)
			wakes = append(wakes, p.Now())
		}
	})
	k.Run()
	want := []Time{10 * Microsecond, 20 * Microsecond, 30 * Microsecond}
	if !reflect.DeepEqual(wakes, want) {
		t.Errorf("wakes = %v, want %v", wakes, want)
	}
	if k.Alive() != 0 {
		t.Errorf("Alive() = %d, want 0", k.Alive())
	}
}

func TestProcSleepUntil(t *testing.T) {
	k := New()
	var at Time
	k.Go("p", func(p *Proc) {
		p.SleepUntil(5 * Millisecond)
		p.SleepUntil(Millisecond) // in the past: must not rewind
		at = p.Now()
	})
	k.Run()
	if at != 5*Millisecond {
		t.Errorf("woke at %v, want 5ms", at)
	}
}

func TestProcAtomicityBetweenBlockingCalls(t *testing.T) {
	// Two processes increment a shared counter in read-modify-write steps
	// with no blocking in between; interleaving must not lose updates.
	k := New()
	counter := 0
	for i := 0; i < 2; i++ {
		k.Go("inc", func(p *Proc) {
			for j := 0; j < 1000; j++ {
				v := counter
				counter = v + 1
				p.Sleep(0)
			}
		})
	}
	k.Run()
	if counter != 2000 {
		t.Errorf("counter = %d, want 2000 (lost updates)", counter)
	}
}

func TestGoFromProcess(t *testing.T) {
	k := New()
	var childRan bool
	k.Go("parent", func(p *Proc) {
		p.Sleep(10)
		p.Kernel().Go("child", func(c *Proc) {
			c.Sleep(5)
			childRan = true
		})
		p.Sleep(10)
	})
	k.Run()
	if !childRan {
		t.Error("child process never ran")
	}
}

func TestResourceFCFS(t *testing.T) {
	k := New()
	r := NewResource(k, 1)
	var order []string
	worker := func(name string, startDelay, hold Time) {
		k.Go(name, func(p *Proc) {
			p.Sleep(startDelay)
			r.Acquire(p)
			order = append(order, name)
			p.Sleep(hold)
			r.Release()
		})
	}
	worker("a", 0, 100)
	worker("b", 10, 100) // arrives second, must go second even though...
	worker("c", 5, 1)    // ...c arrives before b? c at t=5, b at t=10
	k.Run()
	want := []string{"a", "c", "b"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("grant order = %v, want %v", order, want)
	}
}

func TestResourceCapacity(t *testing.T) {
	k := New()
	r := NewResource(k, 2)
	var maxInUse int
	for i := 0; i < 6; i++ {
		k.Go("w", func(p *Proc) {
			r.Acquire(p)
			if r.inUse > maxInUse {
				maxInUse = r.inUse
			}
			p.Sleep(10)
			r.Release()
		})
	}
	k.Run()
	if maxInUse != 2 {
		t.Errorf("max in use = %d, want 2", maxInUse)
	}
	if k.Now() != 30 { // 6 jobs, 2 at a time, 10 each
		t.Errorf("makespan = %v, want 30", k.Now())
	}
}

func TestResourceUse(t *testing.T) {
	k := New()
	r := NewResource(k, 1)
	var done []Time
	for i := 0; i < 3; i++ {
		k.Go("u", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(7)
			r.Release()
			done = append(done, p.Now())
		})
	}
	k.Run()
	want := []Time{7, 14, 21}
	if !reflect.DeepEqual(done, want) {
		t.Errorf("completions = %v, want %v", done, want)
	}
}

func TestResourceReleasePanicsWithoutAcquire(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	k := New()
	NewResource(k, 1).Release()
}

func TestResourceBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewResource(New(), 0)
}

func TestQueueProducerConsumer(t *testing.T) {
	k := New()
	q := NewQueue[int](k)
	var got []int
	k.Go("consumer", func(p *Proc) {
		for {
			v, _ := q.Get(p)
			if v < 0 {
				return
			}
			got = append(got, v)
		}
	})
	k.Go("producer", func(p *Proc) {
		for i := 1; i <= 5; i++ {
			p.Sleep(10)
			q.Put(i)
		}
		q.Put(-1) // the end mark
	})
	k.Run()
	if !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5}) {
		t.Errorf("got %v, want 1..5", got)
	}
	if k.Alive() != 0 {
		t.Errorf("Alive() = %d after the end mark, want 0", k.Alive())
	}
}

func TestQueueMultipleConsumersDrainBacklog(t *testing.T) {
	k := New()
	q := NewQueue[int](k)
	for i := 0; i < 10; i++ {
		q.Put(i)
	}
	var got []int
	for c := 0; c < 3; c++ {
		k.Go("c", func(p *Proc) {
			for {
				v, _ := q.Get(p)
				if v < 0 {
					return
				}
				got = append(got, v)
			}
		})
	}
	k.Go("closer", func(p *Proc) {
		p.Sleep(100)
		for c := 0; c < 3; c++ {
			q.Put(-1) // one end mark per consumer
		}
	})
	k.Run()
	if len(got) != 10 {
		t.Errorf("consumed %d items, want 10: %v", len(got), got)
	}
}

func TestShutdownUnwindsParkedProcesses(t *testing.T) {
	k := New()
	q := NewQueue[int](k)
	cleaned := 0
	for i := 0; i < 4; i++ {
		k.Go("blocked", func(p *Proc) {
			defer func() { cleaned++ }()
			q.Get(p) // blocks forever
		})
	}
	k.Go("sleeper", func(p *Proc) {
		defer func() { cleaned++ }()
		p.Sleep(Second) // parked with a pending wake event
	})
	k.RunUntil(10)
	k.Shutdown()
	if cleaned != 5 {
		t.Errorf("cleaned = %d, want 5", cleaned)
	}
	if k.Alive() != 0 {
		t.Errorf("Alive() = %d, want 0", k.Alive())
	}
	// Kernel stays usable.
	ran := false
	k.After(1, func() { ran = true })
	k.Run()
	if !ran {
		t.Error("kernel unusable after Shutdown")
	}
}

// TestShutdownUnwindsNeverStartedProcesses: a proc created by Go whose
// first resume never ran (a system built and dropped without running
// the kernel) must still be unwound, or its goroutine and everything
// its closure pins leak.
func TestShutdownUnwindsNeverStartedProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	k := New()
	ran := 0
	for i := 0; i < 64; i++ {
		k.Go("never-started", func(p *Proc) { ran++ })
	}
	k.Shutdown()
	if k.Alive() != 0 {
		t.Fatalf("Alive() = %d after Shutdown, want 0", k.Alive())
	}
	if ran != 0 {
		t.Fatalf("%d killed procs ran their body", ran)
	}
	// The goroutines exit right after their final yield; give the
	// runtime a moment to retire them.
	for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines = %d, want back to baseline %d", n, base)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected process panic to surface in Run")
		}
	}()
	k := New()
	k.Go("boom", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	k.Run()
}

// TestDeterminism runs a randomized workload twice with the same seed and
// requires identical completion traces.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		k := New()
		rng := rand.New(rand.NewSource(seed))
		r := NewResource(k, 3)
		var completions []Time
		for i := 0; i < 50; i++ {
			delay := Time(rng.Intn(1000))
			hold := Time(rng.Intn(200) + 1)
			k.Go("w", func(p *Proc) {
				p.Sleep(delay)
				r.Acquire(p)
				p.Sleep(hold)
				r.Release()
				completions = append(completions, p.Now())
			})
		}
		k.Run()
		return completions
	}
	a := run(42)
	b := run(42)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different schedules")
	}
}

// Property: simulated time never decreases across an arbitrary sequence
// of sleeps.
func TestTimeMonotoneProperty(t *testing.T) {
	f := func(delays []int16) bool {
		k := New()
		ok := true
		k.Go("p", func(p *Proc) {
			prev := p.Now()
			for _, d := range delays {
				p.Sleep(Time(d)) // negatives clamp to 0
				if p.Now() < prev {
					ok = false
				}
				prev = p.Now()
			}
		})
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClockWaiter(t *testing.T) {
	w := &ClockWaiter{}
	w.WaitUntil(100)
	if w.Now() != 100 {
		t.Errorf("Now() = %v, want 100", w.Now())
	}
	w.WaitUntil(50) // past: no rewind
	if w.Now() != 100 {
		t.Errorf("Now() = %v after past wait, want 100", w.Now())
	}
}

func TestProcWaiter(t *testing.T) {
	k := New()
	var end Time
	k.Go("p", func(p *Proc) {
		w := ProcWaiter{P: p}
		w.WaitUntil(30 * Microsecond)
		end = w.Now()
	})
	k.Run()
	if end != 30*Microsecond {
		t.Errorf("end = %v, want 30µs", end)
	}
}
