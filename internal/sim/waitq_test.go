package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// mix starts a seeded mix of processes on k — sleepers, flag setters that
// wake the flag's WaitQueue, waiters on those flags (half of them with a
// deadline), a latch handed FIFO by Grant, After callbacks, a queue with
// producers and consumers, alarms that other processes interrupt — and
// returns the trace they will write. Every fourth process sets flags
// instead of waiting on them, so the waits keep resolving. All delays are
// multiples of 5µs, so many events share one instant and only seq orders
// them.
func mix(k *Kernel, seed int64) *[]string {
	const (
		procs = 12
		steps = 400
		end   = 50 * Millisecond
	)
	var trace []string
	var flags [4]bool
	var flagQ [4]WaitQueue
	var latchQ WaitQueue
	latched, done := false, false
	q := NewQueue[int](k)
	alarms := make([]*Alarm, procs)
	for i := range alarms {
		alarms[i] = NewAlarm(k)
	}
	set := func(f int) {
		flags[f] = true
		flagQ[f].Wake()
	}
	// The backstop that lets every waiter and consumer finish.
	k.After(end, func() {
		done = true
		q.Close()
		for f := range flagQ {
			flagQ[f].Wake()
		}
	})
	for i := 0; i < procs; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			w := ProcWaiter{P: p}
			for s := 0; s < steps && !done; s++ {
				d := Time(1+rng.Intn(10)) * 5 * Microsecond
				f := rng.Intn(len(flags))
				kind := rng.Intn(9)
				switch kind {
				case 0, 1:
					p.Sleep(d)
				case 2:
					set(f)
					p.Yield()
				case 3, 4:
					if i%4 == 1 { // never waits, so the flags keep moving
						set(f)
						p.Sleep(d)
						break
					}
					deadline := Time(0)
					if rng.Intn(2) == 0 {
						deadline = p.Now() + 4*d
					}
					for !flags[f] && !done {
						if !flagQ[f].Wait(w, deadline) {
							trace = append(trace, fmt.Sprintf("%d p%d.%d expired", p.Now(), i, s))
							break
						}
					}
					flags[f] = false // the next waiter on f has to wait for a setter
				case 5:
					k.After(d, func() {
						set(f)
						trace = append(trace, fmt.Sprintf("%d after p%d.%d", k.Now(), i, s))
					})
				case 6:
					if i%3 == 0 {
						if v, ok := q.Get(p); ok {
							trace = append(trace, fmt.Sprintf("%d got %d", p.Now(), v))
						}
					} else {
						q.Put(i*1000 + s)
					}
				case 7:
					if rng.Intn(2) == 0 {
						alarms[i].Wait(p, d)
					} else {
						alarms[rng.Intn(procs)].Interrupt()
						p.Sleep(d)
					}
				case 8:
					if latched && !latchQ.Wait(w, p.Now()+2*d) {
						trace = append(trace, fmt.Sprintf("%d p%d.%d latch timeout", p.Now(), i, s))
						break
					}
					latched = true
					p.Sleep(d)
					if !latchQ.Grant() {
						latched = false
					}
				}
				trace = append(trace, fmt.Sprintf("%d p%d.%d kind%d", p.Now(), i, s, kind))
			}
		})
	}
	return &trace
}

// runMix runs mix to the end and returns its trace, the final sequence
// number and the kernel's counters.
func runMix(seed int64) ([]string, uint64, Stats) {
	k := New()
	trace := mix(k, seed)
	k.Run()
	seq, st := k.seq, k.Stats()
	k.Shutdown()
	return *trace, seq, st
}

// TestMixIsDeterministic: the same seed gives the same trace, seq and
// counters, and the mix exercises what it claims to — expired deadlines,
// and stale ones that resumed nobody.
func TestMixIsDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 42, 2015} {
		want, wantSeq, wantSt := runMix(seed)
		got, gotSeq, gotSt := runMix(seed)
		if gotSeq != wantSeq || gotSt != wantSt || !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: two runs differ: seq %d/%d, stats %+v/%+v", seed, gotSeq, wantSeq, gotSt, wantSt)
		}
		trace := strings.Join(want, "\n")
		if !strings.Contains(trace, "expired") || !strings.Contains(trace, "latch timeout") {
			t.Errorf("seed %d: no wait expired: the deadlines go unexercised", seed)
		}
		if wantSt.Resumes >= wantSt.Events {
			t.Errorf("seed %d: %+v: every event resumed someone", seed, wantSt)
		}
	}
}

// TestWaitQueueReleasesInArrivalOrder: Grant releases the head waiter
// alone, Wake every waiter left, each resuming at the release instant in
// the order it queued.
func TestWaitQueueReleasesInArrivalOrder(t *testing.T) {
	k := New()
	var q WaitQueue
	var order []string
	for i := 0; i < 4; i++ {
		k.Go("waiter", func(p *Proc) {
			p.Sleep(Time(i)) // queue in id order
			if !q.Wait(ProcWaiter{P: p}, 0) {
				t.Errorf("waiter %d expired without a deadline", i)
			}
			order = append(order, fmt.Sprintf("%d@%d", i, p.Now()))
		})
	}
	k.Go("releaser", func(p *Proc) {
		p.Sleep(10)
		if !q.Grant() {
			t.Error("Grant found nobody")
		}
		p.Sleep(10)
		q.Wake()
		if q.Grant() || !q.Empty() {
			t.Error("the queue is not empty after Wake")
		}
	})
	k.Run()
	if want := []string{"0@10", "1@20", "2@20", "3@20"}; !reflect.DeepEqual(order, want) {
		t.Errorf("released %v, want %v", order, want)
	}
}

// TestWaitDeadlineFiresAtItsInstant: a deadline nobody beats ends the
// wait exactly at its instant, on no grid; a release before it ends the
// wait at the release instant; a deadline already past expires at once,
// scheduling nothing.
func TestWaitDeadlineFiresAtItsInstant(t *testing.T) {
	k := New()
	var q, other WaitQueue
	var expiredAt, releasedAt Time
	k.Go("expires", func(p *Proc) {
		p.Sleep(3)
		if q.Wait(ProcWaiter{P: p}, 12_345) {
			t.Error("released with nobody releasing")
		}
		expiredAt = p.Now()
		seq, pending := k.seq, k.Pending()
		if other.Wait(ProcWaiter{P: p}, p.Now()) || k.seq != seq || k.Pending() != pending {
			t.Error("a deadline at now did not expire at once, or scheduled an event")
		}
	})
	k.Go("released", func(p *Proc) {
		if !other.Wait(ProcWaiter{P: p}, 50_000) {
			t.Error("expired before its release")
		}
		releasedAt = p.Now()
	})
	k.After(777, func() { other.Wake() })
	k.Run()
	if expiredAt != 12_345 || releasedAt != 777 {
		t.Errorf("expired at %v, released at %v; want 12345 and 777", expiredAt, releasedAt)
	}
}

// TestStaleDeadlineNeverResumes: a waiter released before its deadline is
// never resumed by that deadline's event — not while it waits on the
// queue again with a later deadline, not while it sleeps — and a release
// and a deadline due at the same instant end the wait once.
func TestStaleDeadlineNeverResumes(t *testing.T) {
	k := New()
	var q WaitQueue
	var log []string
	k.Go("waiter", func(p *Proc) {
		w := ProcWaiter{P: p}
		note := func(released bool) { log = append(log, fmt.Sprintf("%v@%d", released, p.Now())) }
		note(q.Wait(w, 50)) // granted at 10
		note(q.Wait(w, 80)) // queued when the stale 50 fires: expires at 80
		p.Sleep(100)
		note(q.Wait(w, 300)) // granted at 200
		p.Sleep(150)         // the stale 300 fires mid-sleep: wakes at 350
		log = append(log, fmt.Sprintf("slept@%d", p.Now()))
		// Granted at 400, where its own deadline is due too; the deadline's
		// event fires first and finds it released: one resume.
		note(q.Wait(w, 400))
		note(q.Wait(w, 1000)) // the grant's wake-up is stale: expires at 1000
	})
	k.Go("releaser", func(p *Proc) {
		for _, at := range []Time{10, 200, 400} {
			p.SleepUntil(at)
			q.Grant()
		}
	})
	k.Run()
	want := []string{"true@10", "false@80", "true@200", "slept@350", "true@400", "false@1000"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("log %v, want %v", log, want)
	}
	if k.Pending() != 0 || !q.Empty() {
		t.Errorf("%d events pending, queue empty %v after Run", k.Pending(), q.Empty())
	}
}

func TestWaitOnAProcesslessClock(t *testing.T) {
	var q WaitQueue
	w := &ClockWaiter{T: 5}
	if q.Wait(w, 500) || w.T != 500 {
		t.Errorf("clock at %v after a wait to 500 that nothing can end, or reported released", w.T)
	}
	defer func() {
		if r := fmt.Sprint(recover()); !strings.Contains(r, "processless") {
			t.Errorf("a wait without deadline on a clock panicked with %q", r)
		}
	}()
	q.Wait(w, 0)
	t.Error("a wait that can never end returned")
}

// TestShutdownUnwindsQueuedWaiters: processes parked on a WaitQueue, with
// and without a deadline pending, unwind with their defers run; the queue
// is empty after, so no Grant can hand anything to a dead process.
func TestShutdownUnwindsQueuedWaiters(t *testing.T) {
	k := New()
	var q WaitQueue
	cleaned := 0
	for _, deadline := range []Time{0, 500, 0} {
		k.Go("waiter", func(p *Proc) {
			defer func() { cleaned++ }()
			q.Wait(ProcWaiter{P: p}, deadline)
			t.Error("a killed waiter ran on")
		})
	}
	k.RunUntil(35)
	if q.Empty() || k.Pending() != 1 {
		t.Fatalf("before Shutdown: queue empty %v, %d pending; want 3 waiters and their one deadline", q.Empty(), k.Pending())
	}
	k.Shutdown()
	if cleaned != 3 || !q.Empty() || q.Grant() {
		t.Errorf("after Shutdown: %d of 3 defers ran, queue empty %v", cleaned, q.Empty())
	}
	if k.Alive() != 0 || k.Pending() != 0 {
		t.Errorf("Alive() = %d, Pending() = %d after Shutdown, want 0 0", k.Alive(), k.Pending())
	}
}

// TestSleepAndWaitAllocateNothing pins the event path's allocation
// budget: a sleep/wake round trip, a wait released by another process —
// with and without a deadline — and a wait that expires are free; After
// costs at most the caller's closure.
func TestSleepAndWaitAllocateNothing(t *testing.T) {
	k := New()
	defer k.Shutdown()
	k.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	k.RunFor(100) // grow the heap's backing array first
	if n := testing.AllocsPerRun(1000, func() { k.RunFor(1) }); n != 0 {
		t.Errorf("Sleep: %v allocs per sleep/wake, want 0", n)
	}

	for _, deadline := range []Time{0, 10} {
		k := New()
		var q WaitQueue
		waits := 0
		k.Go("waiter", func(p *Proc) {
			for {
				at := Time(0)
				if deadline > 0 {
					at = p.Now() + deadline
				}
				if !q.Wait(ProcWaiter{P: p}, at) {
					t.Error("a wait expired before its release")
				}
				waits++
			}
		})
		k.Go("waker", func(p *Proc) {
			for {
				p.Sleep(1)
				q.Wake()
			}
		})
		k.RunFor(100)
		if n := testing.AllocsPerRun(1000, func() { k.RunFor(1) }); n != 0 {
			t.Errorf("wait/wake with deadline %v: %v allocs per cycle, want 0", deadline, n)
		}
		if waits != 1101 {
			t.Errorf("deadline %v: %d waits released over 1101 ns", deadline, waits)
		}
		k.Shutdown()
	}

	k2 := New()
	defer k2.Shutdown()
	var q WaitQueue
	k2.Go("expirer", func(p *Proc) {
		for {
			q.Wait(ProcWaiter{P: p}, p.Now()+1)
		}
	})
	k2.RunFor(100)
	if n := testing.AllocsPerRun(1000, func() { k2.RunFor(1) }); n != 0 {
		t.Errorf("an expiring wait: %v allocs per deadline, want 0", n)
	}

	k3 := New()
	fired := 0
	k3.After(0, func() {})
	k3.Run()
	if n := testing.AllocsPerRun(1000, func() {
		k3.After(1, func() { fired++ })
		k3.Run()
	}); n > 1 {
		t.Errorf("After: %v allocs per event, want at most the caller's closure", n)
	}
}

// TestFIFOsKeepTheirBackingArray: popping the head with s = s[1:] gave
// up one slot of capacity per pop, so a steady one-item exchange
// reallocated on every Put and every parked Get. The exchange is also
// the hand-off path — each round trip resumes pong, ping and the driver
// through coroutine switches — and that allocates nothing either, nor
// does a resource handed from one user to the next.
func TestFIFOsKeepTheirBackingArray(t *testing.T) {
	k := New()
	defer k.Shutdown()
	ping, pong := NewQueue[int](k), NewQueue[int](k)
	rounds := 0
	k.Go("ping", func(p *Proc) {
		for {
			ping.Put(rounds)
			pong.Get(p)
			rounds++
			p.Sleep(1) // one round per nanosecond, so RunFor(1) is one round
		}
	})
	k.Go("pong", func(p *Proc) {
		for {
			v, _ := ping.Get(p)
			pong.Put(v)
		}
	})
	round := func() { k.RunFor(1) }
	for i := 0; i < 100; i++ {
		round()
	}
	before := k.Stats().Switches
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Errorf("queue ping-pong: %v allocs per round trip, want 0", n)
	}
	// driver -> ping -> pong -> ping -> driver, 1001 times with the warm-up.
	if got := k.Stats().Switches - before; got != 4*1001 {
		t.Errorf("%d switches over 1001 round trips, want %d", got, 4*1001)
	}

	k2 := New()
	defer k2.Shutdown()
	r := NewResource(k2, 1)
	for i := 0; i < 2; i++ {
		k2.Go("user", func(p *Proc) {
			for {
				r.Acquire(p)
				p.Sleep(1)
				r.Release()
			}
		})
	}
	k2.RunFor(100)
	if n := testing.AllocsPerRun(1000, func() { k2.RunFor(1) }); n != 0 {
		t.Errorf("resource hand-off: %v allocs per hold, want 0", n)
	}
}

// TestQueuePopReleasesItem: a delivered item must not stay reachable
// through the queue's backing array.
func TestQueuePopReleasesItem(t *testing.T) {
	k := New()
	q := NewQueue[*int](k)
	a, b := new(int), new(int)
	q.Put(a)
	q.Put(b)
	k.Go("consumer", func(p *Proc) {
		if v, _ := q.Get(p); v != a {
			t.Errorf("Get = %p, want the first item %p", v, a)
		}
	})
	k.Run()
	if all := q.items[:2]; all[0] != b || all[1] != nil {
		t.Errorf("backing array after one pop = %v, want [%p <nil>]", all, b)
	}
}

func BenchmarkSleepWake(b *testing.B) {
	k := New()
	defer k.Shutdown()
	k.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	k.RunFor(10)
	b.ReportAllocs()
	b.ResetTimer()
	k.RunFor(Time(b.N))
}

// BenchmarkWaitGrant: one latch handed back and forth between two
// processes, each hold one nanosecond.
func BenchmarkWaitGrant(b *testing.B) {
	k := New()
	defer k.Shutdown()
	var q WaitQueue
	held := false
	for i := 0; i < 2; i++ {
		k.Go("user", func(p *Proc) {
			for {
				if held {
					q.Wait(ProcWaiter{P: p}, 0)
				}
				held = true
				p.Sleep(1)
				if !q.Grant() {
					held = false
				}
			}
		})
	}
	k.RunFor(10)
	b.ReportAllocs()
	b.ResetTimer()
	k.RunFor(Time(b.N))
}

func BenchmarkAfter(b *testing.B) {
	k := New()
	fired := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(Time(i&1023), func() { fired++ })
		if i&1023 == 1023 {
			k.Run()
		}
	}
	k.Run()
}
