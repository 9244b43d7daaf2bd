package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// zeroDelayStorm adds what leans hardest on the lane to a scenario on k:
// bursts of chained After(0) callbacks, processes that only ever Sleep(0),
// and a queue whose producers hand bursts to several consumers — all at
// instants the mix also uses, so lane and heap hold events for the same
// time and only seq orders them.
func zeroDelayStorm(k *Kernel, seed int64, trace *[]string) {
	log := func(format string, args ...any) {
		*trace = append(*trace, fmt.Sprintf("%d ", k.Now())+fmt.Sprintf(format, args...))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	q := NewQueue[int](k)
	const rounds = 200
	k.Go("after0", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			for b := rng.Intn(6); b >= 0; b-- {
				k.After(0, func() {
					log("after0 %d.%d", r, b)
					if b%2 == 0 { // a callback scheduling at the same instant
						k.After(0, func() { log("after0 chained %d.%d", r, b) })
					}
				})
			}
			p.Sleep(Time(rng.Intn(4)) * 5 * Microsecond) // 0: a Sleep(0) between bursts
		}
	})
	for i := 0; i < 3; i++ {
		k.Go("yielder", func(p *Proc) {
			for r := 0; r < 4*rounds; r++ {
				if r%16 == 15 {
					p.Sleep(5 * Microsecond)
				}
				p.Sleep(0)
				log("yield %d.%d", i, r)
			}
		})
		k.Go("consumer", func(p *Proc) {
			for {
				v, _ := q.Get(p)
				if v < 0 {
					return
				}
				log("consumer %d got %d", i, v)
			}
		})
	}
	k.Go("producer", func(p *Proc) {
		for r := 0; r < rounds; r++ {
			for b := rng.Intn(8); b >= 0; b-- {
				q.Put(r*100 + b)
			}
			p.Sleep(10 * Microsecond)
		}
		for i := 0; i < 3; i++ {
			q.Put(-1) // one end mark per consumer
		}
	})
}

// TestLaneOrderIsHeapOrder: the lane is an access path, not a policy.
// The same scenario with every event forced through the heap must give
// the same trace, draw the same sequence numbers and count the same
// events.
func TestLaneOrderIsHeapOrder(t *testing.T) {
	run := func(seed int64, heapOnly bool) ([]string, uint64, Stats, bool) {
		k := New()
		defer k.Shutdown()
		k.heapOnly = heapOnly
		trace := mix(k, seed)
		zeroDelayStorm(k, seed, trace)
		k.Run()
		return *trace, k.seq, k.Stats(), k.fifo.buf != nil
	}
	for _, seed := range []int64{1, 42, 2015} {
		want, wantSeq, heapSt, heapLane := run(seed, true)
		got, gotSeq, laneSt, lane := run(seed, false)
		if heapLane || !lane {
			t.Fatalf("seed %d: lane used %v forced through the heap, %v otherwise; want false and true", seed, heapLane, lane)
		}
		if gotSeq != wantSeq {
			t.Errorf("seed %d: final seq %d through lanes, %d through the heap", seed, gotSeq, wantSeq)
		}
		if laneSt != heapSt {
			t.Errorf("seed %d: counters %+v through lanes, %+v through the heap", seed, laneSt, heapSt)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: traces diverge at entry %d of %d: lanes %q, heap %q",
						seed, i, len(want), append(got, "<end>")[i], want[i])
				}
			}
			t.Fatalf("seed %d: lane trace has %d entries, heap trace %d", seed, len(got), len(want))
		}
	}
}

// TestLaneRingGrowsAndWraps: a lane's ring keeps FIFO order through
// growth (from a wrapped state) and through many trips round the buffer.
func TestLaneRingGrowsAndWraps(t *testing.T) {
	var l lane
	rng := rand.New(rand.NewSource(7))
	pushed, popped := uint64(0), uint64(0)
	pop := func() {
		if e := l.pop(); e.seq != popped+1 {
			t.Fatalf("popped seq %d after %d pops: order lost (head %d, n %d, len %d)", e.seq, popped, l.head, l.n, len(l.buf))
		}
		popped++
	}
	wrapped := 0
	for pushed < 10000 {
		// Occupancy drifts up in bursts, so the ring is refilled across
		// its seam many times at each size before it has to grow.
		for b := rng.Intn(40); b >= 0; b-- {
			pushed++
			l.push(event{at: Time(pushed), seq: pushed})
			if l.head+l.n > len(l.buf) {
				wrapped++
			}
		}
		for b := rng.Intn(39); b >= 0 && l.n > 0; b-- {
			pop()
		}
	}
	if len(l.buf) < 64 || len(l.buf)&(len(l.buf)-1) != 0 {
		t.Errorf("ring length %d after the run, want a power of two that grew past 64", len(l.buf))
	}
	if wrapped < 100 {
		t.Errorf("ring content straddled the seam on only %d pushes; the test does not exercise wrap-around", wrapped)
	}
	for l.n > 0 {
		pop()
	}
	if popped != pushed {
		t.Errorf("popped %d of %d", popped, pushed)
	}
	for i, e := range l.buf {
		if e.seq != 0 || e.p != nil || e.fn != nil {
			t.Fatalf("slot %d still holds %+v after draining: a popped slot must be zeroed", i, e)
		}
	}
}

// TestSelfResumeSwitchesNothing: a process whose own wake-up is the next
// event keeps the processor — dispatch returns on the same stack.
func TestSelfResumeSwitchesNothing(t *testing.T) {
	k := New()
	var during Stats
	k.Go("sleeper", func(p *Proc) {
		before := k.Stats()
		for i := 0; i < 1000; i++ {
			p.Sleep(3)
		}
		var q WaitQueue
		q.Wait(ProcWaiter{P: p}, 3100) // its own deadline resumes it
		during = k.Stats()
		during.Resumes -= before.Resumes
		during.Switches -= before.Switches
	})
	k.Run()
	if during.Resumes != 1001 || during.Switches != 0 {
		t.Errorf("1000 sleeps and a wait alone on the kernel: %d resumes, %d switches; want 1001 and 0", during.Resumes, during.Switches)
	}
	// All told: the driver started the process, its exit returned to the driver.
	if st := k.Stats(); st.Switches != 2 {
		t.Errorf("Switches = %d over the whole run, want 2 (driver -> process -> driver)", st.Switches)
	}
}

// TestHandOffIsOneSwitch: waking another process is exactly one
// hand-off between seats, from the process that parked to the one that
// runs next (through the driver, which Switches does not count again).
func TestHandOffIsOneSwitch(t *testing.T) {
	k := New()
	defer k.Shutdown()
	ping, pong := NewQueue[int](k), NewQueue[int](k)
	const rounds = 500
	var during Stats
	k.Go("ping", func(p *Proc) {
		ping.Put(0) // warm-up round: pong is running and parked in Get after it
		pong.Get(p)
		before := k.Stats()
		for i := 0; i < rounds; i++ {
			ping.Put(i)
			pong.Get(p)
		}
		during = k.Stats()
		during.Resumes -= before.Resumes
		during.Switches -= before.Switches
	})
	k.Go("pong", func(p *Proc) {
		for {
			v, _ := ping.Get(p)
			pong.Put(v)
		}
	})
	k.Run()
	if during.Resumes != 2*rounds || during.Switches != 2*rounds {
		t.Errorf("%d round trips: %d resumes, %d switches; want %d of each (ping -> pong, pong -> ping)",
			rounds, during.Resumes, during.Switches, 2*rounds)
	}
}

// TestRunUntilStopsAndContinues: RunUntil returns to the driver with
// processes parked in the middle of a queue wait and of a Sleep, and
// running on from there — in one go or in slices — is indistinguishable
// from never having stopped.
func TestRunUntilStopsAndContinues(t *testing.T) {
	k := New()
	defer k.Shutdown()
	var q WaitQueue
	var waiter, sleeper *Proc
	var woke [2]Time
	waiter = k.Go("waiter", func(p *Proc) {
		q.Wait(ProcWaiter{P: p}, 150)
		woke[0] = p.Now()
	})
	sleeper = k.Go("sleeper", func(p *Proc) {
		p.Sleep(100)
		q.Wake()
		woke[1] = p.Now()
	})
	k.RunUntil(50)
	if k.Now() != 50 || !waiter.parked || waiter.q != &q || !sleeper.parked || k.pending != 2 {
		t.Fatalf("at the limit: now %v, waiter parked %v queued %v, sleeper parked %v, %d pending; want 50, both parked, 2 pending",
			k.Now(), waiter.parked, waiter.q == &q, sleeper.parked, k.pending)
	}
	k.RunUntil(100) // the sleeper is due exactly at the limit
	if k.pending != 1 || woke != [2]Time{100, 100} || k.Alive() != 0 {
		t.Errorf("woke at %v with %d alive and %d pending, want [100 100], 0 and the stale deadline", woke, k.Alive(), k.pending)
	}
	k.RunUntil(200)
	if st := k.Stats(); k.pending != 0 || st.Events != st.Resumes+1 {
		t.Errorf("%+v with %d pending: the stale deadline should fire as one event that resumes nobody", st, k.pending)
	}

	whole := func(seed int64, slice Time) ([]string, uint64, Stats) {
		k := New()
		defer k.Shutdown()
		trace := mix(k, seed)
		for slice > 0 && k.Now() < 60*Millisecond {
			k.RunFor(slice)
		}
		k.Run()
		st := k.Stats()
		st.Switches = 0 // every return to the driver is one; the simulation cannot see them
		return *trace, k.seq, st
	}
	want, wantSeq, wantSt := whole(42, 0)
	for _, slice := range []Time{7 * Microsecond, Millisecond} {
		got, gotSeq, gotSt := whole(42, slice)
		if gotSeq != wantSeq || gotSt != wantSt || !reflect.DeepEqual(got, want) {
			t.Errorf("run in %v slices: seq %d, stats %+v, %d trace entries; in one go: %d, %+v, %d (or the traces differ)",
				slice, gotSeq, gotSt, len(got), wantSeq, wantSt, len(want))
		}
	}
}

// TestShutdownFromEveryParkedState: waiters on a WaitQueue with their
// deadlines on the heap or none, a sleeper, a process blocked for good,
// and one whose deferred function blocks again while it unwinds —
// Shutdown ends them all, leaves nothing pending, and can be called
// again.
func TestShutdownFromEveryParkedState(t *testing.T) {
	k := New()
	q := NewQueue[int](k)
	var wq WaitQueue
	var order []string
	died := func(name string) func() { return func() { order = append(order, name) } }
	for _, deadline := range []Time{500, 0, 1000} {
		k.Go("waiter", func(p *Proc) {
			defer died(fmt.Sprintf("waiter%d", deadline))()
			wq.Wait(ProcWaiter{P: p}, deadline)
		})
	}
	k.Go("sleeper", func(p *Proc) {
		defer died("sleeper")()
		p.Sleep(Second)
	})
	k.Go("stubborn", func(p *Proc) {
		defer died("stubborn")()
		defer func() {
			q.Put(1)   // wakes "blocked" at an instant that never comes
			p.Sleep(5) // parks in the middle of unwinding; killed a second time
			t.Error("a process killed while it unwinds must not run on")
		}()
		p.Sleep(Second)
	})
	k.Go("blocked", func(p *Proc) {
		defer died("blocked")()
		q.Get(p)
		t.Error("a wake-up scheduled during Shutdown must not be delivered")
	})
	k.RunUntil(100)
	if k.pending != 4 {
		t.Fatalf("%d pending before Shutdown; want 4 (two deadlines, two sleeps)", k.pending)
	}
	k.Shutdown()
	want := []string{"waiter500", "waiter0", "waiter1000", "sleeper", "stubborn", "blocked"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("unwind order %v, want %v (lowest id first)", order, want)
	}
	if k.Alive() != 0 || k.pending != 0 {
		t.Errorf("Alive() = %d, pending = %d after Shutdown, want 0 0", k.Alive(), k.pending)
	}
	st := k.Stats()
	k.Shutdown()
	if k.Stats() != st || len(order) != len(want) {
		t.Errorf("a second Shutdown did something: stats %+v -> %+v, %d defers", st, k.Stats(), len(order))
	}
	// Still usable, the lane and the queue included.
	ran := false
	k.Go("after", func(p *Proc) {
		p.Sleep(0)
		wq.Wait(ProcWaiter{P: p}, 150)
		ran = wq.Empty()
	})
	k.Run()
	if !ran || k.Now() != 150 {
		t.Errorf("after Shutdown: ran %v, now %v; want true 150", ran, k.Now())
	}
}

// TestCallbackPanicSparesTheHolder: an After callback runs on whichever
// process parked last. Its panic is not that process's:
// it must come out of Run on the driver, with the value it was raised
// with, while the holder stays parked, keeps its stack and runs on if the
// driver carries on.
func TestCallbackPanicSparesTheHolder(t *testing.T) {
	boom := errors.New("boom")
	// Each case arms a panic at 5 and says how many switches finishing the
	// holder then takes: driver -> holder -> driver, plus the same for a
	// process the callback released before it panicked.
	type armed struct {
		arm      func(k *Kernel)
		switches uint64
	}
	cases := map[string]armed{
		"After callback": {func(k *Kernel) { k.After(5, func() { panic(boom) }) }, 2},
		"After callback that released a waiter": {func(k *Kernel) {
			var q WaitQueue
			k.Go("waiter", func(p *Proc) { q.Wait(ProcWaiter{P: p}, 0) })
			k.After(5, func() {
				q.Wake()
				panic(boom)
			})
		}, 3},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			k := New()
			defer k.Shutdown()
			unwound, finished := false, false
			holder := k.Go("holder", func(p *Proc) {
				defer func() {
					if !finished {
						unwound = true
					}
				}()
				p.Sleep(10) // parks first, so it is this goroutine that fires the event at 5
				finished = true
			})
			c.arm(k)
			func() {
				defer func() {
					if r := recover(); r != boom {
						t.Errorf("Run panicked with %v, want the original value %v", r, boom)
					}
				}()
				k.Run()
				t.Error("Run returned; the panic was swallowed")
			}()
			if unwound || !holder.parked || k.Now() != 5 {
				t.Fatalf("after the panic: holder unwound %v, parked %v, now %v; want an untouched holder parked at 5", unwound, holder.parked, k.Now())
			}
			before := k.Stats().Switches
			k.RunUntil(10)
			if !finished {
				t.Error("holder did not run on after the driver recovered")
			}
			if got := k.Stats().Switches - before; got != c.switches {
				t.Errorf("%d switches to finish the holder, want %d: it was asleep, not running", got, c.switches)
			}
		})
	}
}

// TestBlockingCallbackPanics: an event callback has no process to park.
// Blocking in one used to deadlock the kernel goroutine; now that the
// loop runs on process goroutines it would re-enter dispatch and hand a
// stranger's processor away, so it is refused.
func TestBlockingCallbackPanics(t *testing.T) {
	cases := map[string]func(k *Kernel, victim *Proc){
		"After callback sleeps": func(k *Kernel, victim *Proc) {
			k.After(5, func() { victim.Sleep(1) })
		},
		"After callback waits on a WaitQueue": func(k *Kernel, victim *Proc) {
			var q WaitQueue
			k.After(5, func() { q.Wait(ProcWaiter{P: victim}, 0) })
		},
	}
	for name, arm := range cases {
		t.Run(name, func(t *testing.T) {
			k := New()
			defer k.Shutdown()
			victim := k.Go("victim", func(p *Proc) { p.Sleep(Second) })
			arm(k, victim)
			defer func() {
				r := recover()
				if !strings.Contains(fmt.Sprint(r), "sim: blocking call from an event callback") {
					t.Errorf("Run panicked with %v, want the blocking-call diagnosis", r)
				}
				if k.firing {
					t.Error("kernel still thinks the event loop is running")
				}
			}()
			k.Run()
			t.Error("Run returned; a callback blocked unnoticed")
		})
	}
}

// TestSignalWaitFireAllocatesNothing: a flash command's completion
// signal has one waiter, which the Signal holds inline.
func TestSignalWaitFireAllocatesNothing(t *testing.T) {
	k := New()
	defer k.Shutdown()
	var s Signal
	waits := 0
	k.Go("waiter", func(p *Proc) {
		for {
			s = Signal{} // one-shot: a fresh signal per command
			s.Wait(p)
			waits++
		}
	})
	k.Go("firer", func(p *Proc) {
		for {
			p.Sleep(1)
			s.Fire()
		}
	})
	k.RunFor(100)
	if n := testing.AllocsPerRun(1000, func() { k.RunFor(1) }); n != 0 {
		t.Errorf("Signal wait/fire: %v allocs per round, want 0", n)
	}
	if waits != 1101 {
		t.Errorf("%d waits completed over 1101 rounds", waits)
	}
}

// TestSignalWakesInArrivalOrder: the inline first waiter, then the rest.
func TestSignalWakesInArrivalOrder(t *testing.T) {
	k := New()
	var s Signal
	var order []int
	for i := 0; i < 4; i++ {
		k.Go("waiter", func(p *Proc) {
			p.Sleep(Time(i))
			s.Wait(p)
			order = append(order, i)
		})
	}
	k.After(10, s.Fire)
	k.Run()
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Errorf("wake order %v, want arrival order", order)
	}
}

// TestDriverSeatMovesBetweenGoroutines: the driver is whoever calls Run,
// RunUntil or Shutdown, not a fixed goroutine. Starting the processes on
// one goroutine, running them on a second and unwinding them on a third
// must give the same trace, final seq and counters as one goroutine doing
// all three.
func TestDriverSeatMovesBetweenGoroutines(t *testing.T) {
	type result struct {
		trace []string
		seq   uint64
		st    Stats
	}
	run := func(on func(func())) result {
		k := New()
		var trace *[]string
		on(func() {
			trace = mix(k, 42)
			zeroDelayStorm(k, 42, trace)
			k.RunFor(7 * Millisecond)
		})
		on(func() { k.RunFor(20 * Millisecond) })
		on(k.Shutdown)
		if k.Alive() != 0 || k.pending != 0 {
			t.Errorf("Alive() = %d, pending = %d after Shutdown, want 0 0", k.Alive(), k.pending)
		}
		return result{*trace, k.seq, k.Stats()}
	}
	want := run(func(f func()) { f() })
	got := run(func(f func()) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		<-done
	})
	if want.st.Switches == 0 {
		t.Fatalf("counters %+v: the scenario hands off nothing", want.st)
	}
	if got.seq != want.seq || got.st != want.st || !reflect.DeepEqual(got.trace, want.trace) {
		t.Errorf("three goroutines: seq %d, stats %+v, %d trace entries; one goroutine: %d, %+v, %d (or the traces differ)",
			got.seq, got.st, len(got.trace), want.seq, want.st, len(want.trace))
	}
}
