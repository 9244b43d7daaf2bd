package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// sleepLoop is Poll's definition, run on the process itself: the
// reference the kernel-resident implementation must be indistinguishable
// from.
func sleepLoop(p *Proc, every Time, ready func() bool) {
	for !ready() {
		p.Sleep(every)
	}
}

// pollScenario runs a seeded mix of processes — sleepers, flag flippers,
// After callbacks, a queue with producers and consumers, alarms that
// other processes interrupt — in which every wait on a shared flag goes
// through wait (every fourth process sets flags instead of waiting, so
// the waits keep resolving). All delays are multiples of 5µs and the poll
// periods 10µs or 20µs, so many waiters share one tick instant and only
// seq orders them. It returns the (time, process, step) trace, the final sequence
// number and the kernel's counters.
func pollScenario(seed int64, wait func(p *Proc, every Time, ready func() bool)) ([]string, uint64, Stats) {
	k := New()
	trace := pollMix(k, seed, wait)
	k.Run()
	seq, st := k.seq, k.Stats()
	k.Shutdown()
	return *trace, seq, st
}

// pollMix starts pollScenario's processes on k and returns the trace
// they will write.
func pollMix(k *Kernel, seed int64, wait func(p *Proc, every Time, ready func() bool)) *[]string {
	const (
		procs = 12
		steps = 400
		end   = 50 * Millisecond
	)
	var trace []string
	var flags [4]bool
	done := false
	q := NewQueue[int](k)
	alarms := make([]*Alarm, procs)
	for i := range alarms {
		alarms[i] = NewAlarm(k)
	}
	// The backstop that lets every waiter and consumer finish.
	k.After(end, func() {
		done = true
		q.Close()
	})
	for i := 0; i < procs; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for s := 0; s < steps && !done; s++ {
				d := Time(1+rng.Intn(10)) * 5 * Microsecond
				f := rng.Intn(len(flags))
				kind := rng.Intn(8)
				switch kind {
				case 0, 1:
					p.Sleep(d)
				case 2:
					flags[f] = true
					p.Yield()
				case 3, 4:
					if i%4 == 1 { // never waits, so the flags keep moving
						flags[f] = true
						p.Sleep(d)
						break
					}
					every := Time(10+10*rng.Intn(2)) * Microsecond
					wait(p, every, func() bool { return flags[f] || done })
					flags[f] = false // the next waiter on f has to wait for a flipper
				case 5:
					k.After(d, func() {
						flags[f] = true
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
				}
				trace = append(trace, fmt.Sprintf("%d p%d.%d kind%d", p.Now(), i, s, kind))
			}
		})
	}
	return &trace
}

func TestPollMatchesSleepLoop(t *testing.T) {
	for _, seed := range []int64{1, 42, 2015} {
		want, wantSeq, loopSt := pollScenario(seed, sleepLoop)
		got, gotSeq, pollSt := pollScenario(seed, (*Proc).Poll)
		if gotSeq != wantSeq {
			t.Errorf("seed %d: final seq %d through Poll, %d through the sleep loop", seed, gotSeq, wantSeq)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("seed %d: traces diverge at entry %d of %d: Poll %q, sleep loop %q",
						seed, i, len(want), append(got, "<end>")[i], want[i])
				}
			}
			t.Fatalf("seed %d: Poll trace has %d entries, sleep loop %d", seed, len(got), len(want))
		}
		if pollSt.Events != loopSt.Events {
			t.Errorf("seed %d: %d events through Poll, %d through the sleep loop", seed, pollSt.Events, loopSt.Events)
		}
		// The scenario must exercise what it claims to: ticks that stayed
		// in the kernel, each one a resume the sleep loop paid for.
		if pollSt.PollTicks == 0 || loopSt.PollTicks != 0 {
			t.Errorf("seed %d: poll ticks %d (Poll) / %d (sleep loop), want >0 / 0", seed, pollSt.PollTicks, loopSt.PollTicks)
		}
		if pollSt.Resumes+pollSt.PollTicks != loopSt.Resumes {
			t.Errorf("seed %d: resumes %d + ticks %d through Poll != %d resumes through the sleep loop",
				seed, pollSt.Resumes, pollSt.PollTicks, loopSt.Resumes)
		}
	}
}

func TestPollReadyAtOnceSchedulesNothing(t *testing.T) {
	k := New()
	returned := false
	k.Go("p", func(p *Proc) {
		p.Sleep(7)
		seq := k.seq
		p.Poll(10, func() bool { return true })
		returned = k.seq == seq && k.Pending() == 0 && p.Now() == 7 && p.ready == nil
	})
	k.Run()
	if !returned {
		t.Error("Poll with ready already true scheduled an event, moved time or kept the predicate")
	}
}

func TestPollWakesOnTheTickGrid(t *testing.T) {
	k := New()
	flag := false
	var woke Time
	k.Go("waiter", func(p *Proc) {
		p.Poll(20, func() bool { return flag })
		woke = p.Now()
	})
	k.After(45, func() { flag = true })
	k.Run()
	if woke != 60 {
		t.Errorf("woke at %v, want 60 (first 20-tick at or after 45)", woke)
	}
	if st := k.Stats(); st.PollTicks != 2 || st.Resumes != 2 {
		t.Errorf("stats %+v, want 2 kernel-resident ticks (20, 40) and 2 resumes (start, 60)", st)
	}
}

func TestShutdownUnwindsPoller(t *testing.T) {
	k := New()
	cleaned := false
	var poller *Proc
	poller = k.Go("poller", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Poll(10, func() bool { return false })
	})
	k.RunUntil(35)
	if poller.ready == nil {
		t.Fatal("process is not parked in Poll")
	}
	k.Shutdown()
	if !cleaned {
		t.Error("Shutdown did not run the poller's defers")
	}
	if poller.ready != nil {
		t.Error("killed poller left its predicate behind")
	}
	if k.Alive() != 0 || k.Pending() != 0 {
		t.Errorf("Alive() = %d, Pending() = %d after Shutdown, want 0 0", k.Alive(), k.Pending())
	}
}

func TestPollPredicatePanicSurfacesFromRun(t *testing.T) {
	k := New()
	calls := 0
	k.Go("poller", func(p *Proc) {
		p.Poll(10, func() bool {
			if calls++; calls == 3 { // the first call is on the process, this one in the kernel
				panic("bad predicate")
			}
			return false
		})
	})
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "bad predicate") {
			t.Errorf("recovered %v, want the predicate's panic out of Run", r)
		}
		k.Shutdown()
	}()
	k.Run()
}

// TestSleepAndTickAllocateNothing pins the event path's allocation
// budget: a sleep/wake round trip and a re-armed tick are free, After
// costs at most the caller's closure.
func TestSleepAndTickAllocateNothing(t *testing.T) {
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

	k2 := New()
	defer k2.Shutdown()
	k2.Go("poller", func(p *Proc) { p.Poll(1, func() bool { return false }) })
	k2.RunFor(100)
	ticks := k2.Stats().PollTicks
	if n := testing.AllocsPerRun(1000, func() { k2.RunFor(1) }); n != 0 {
		t.Errorf("Poll: %v allocs per re-armed tick, want 0", n)
	}
	if got := k2.Stats().PollTicks - ticks; got != 1001 { // AllocsPerRun warms up with one extra call
		t.Errorf("%d ticks re-armed over 1001 RunFor(1) calls", got)
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
// through coroutine switches — and that allocates nothing either.
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
				r.Use(p, 1)
			}
		})
	}
	k2.RunFor(100)
	c := cap(r.waiters)
	k2.RunFor(1000)
	if got := cap(r.waiters); got != c || c == 0 {
		t.Errorf("resource wait queue capacity %d -> %d over 1000 hand-offs, want unchanged and nonzero", c, got)
	}
}

// TestQueuePopReleasesItem: a delivered item must not stay reachable
// through the queue's backing array.
func TestQueuePopReleasesItem(t *testing.T) {
	q := NewQueue[*int](New())
	a, b := new(int), new(int)
	q.Put(a)
	q.Put(b)
	if v, _ := q.TryGet(); v != a {
		t.Fatalf("TryGet = %p, want the first item %p", v, a)
	}
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

func BenchmarkPollTick(b *testing.B) {
	k := New()
	defer k.Shutdown()
	// Eight pollers on one grid: the tick is measured with the heap at
	// the depth a terminal population gives it.
	for i := 0; i < 8; i++ {
		k.Go("poller", func(p *Proc) { p.Poll(1, func() bool { return false }) })
	}
	k.RunFor(10)
	b.ReportAllocs()
	b.ResetTimer()
	k.RunFor(Time(b.N / 8))
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
