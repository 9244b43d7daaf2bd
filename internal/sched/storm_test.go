package sched

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/storm.golden")

// stormSeeds are the seeds testdata/storm.golden holds, each under both
// policies.
var stormSeeds = []int64{1, 42, 2015}

// storm drives two dies with six submitters that mix reads, programs,
// partial programs, copybacks and erases at all five classes — some
// through request descriptors that retag the command or give it a
// deadline — with think times from none to several erase times, so
// erases run uninterrupted, suspended a few times, and suspended
// maxSuspends times (the last slice uninterruptible). It returns the
// Config.Trace stream, one line per command, then a hash of what each
// submitter saw, the kernel's event count, and the scheduler's
// and the device's stats; suspends[n] counts the erases suspended n times.
//
// Every submitter programs and erases only its own blocks (block b
// belongs to submitter b%6), so the array rules hold however the dies
// reorder; reads go anywhere and may find a page erased.
func storm(seed int64, policy Policy) (transcript string, suspends [maxSuspends + 1]int) {
	const submitters, ops = 6, 50
	dev := testDev(2)
	geo := dev.Geometry()
	k := sim.New()
	var out strings.Builder
	s := New(k, dev, Config{Policy: policy, Trace: func(e Event) {
		if e.Op == "erase" {
			suspends[e.Suspends]++
		}
		fmt.Fprintf(&out, "%d %v %d %s %d %d %d %d %d\n",
			e.Die, e.Class, e.Tag, e.Op, int64(e.Arrival), int64(e.Start), int64(e.End), e.Suspends, e.Block)
	}})
	var views [NumClasses]flash.Dev
	for c := range views {
		views[c] = s.Bind(Class(c))
	}
	writeClasses := []Class{ClassWAL, ClassProgram, ClassProgram, ClassGC}
	saw := make([]uint64, submitters)

	for id := 0; id < submitters; id++ {
		k.Go(fmt.Sprintf("submitter%d", id), func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed*100 + int64(id)))
			var mine []nand.PBN
			for b := id; b < geo.TotalBlocks(); b += submitters {
				mine = append(mine, nand.PBN(b))
			}
			next := make(map[nand.PBN]int) // pages programmed so far, per own block
			data, buf := make([]byte, geo.PageSize), make([]byte, geo.PageSize)
			h := fnv.New64a()
			// open returns an own block with room for one more page.
			open := func() (nand.PBN, bool) {
				for _, i := range rng.Perm(len(mine)) {
					if next[mine[i]] < geo.PagesPerBlock {
						return mine[i], true
					}
				}
				return 0, false
			}
			for op := 0; op < ops; op++ {
				// The waiter: bare, or a descriptor with a tag, sometimes a
				// class of its own and sometimes a deadline.
				var w sim.Waiter = sim.ProcWaiter{P: p}
				if rng.Intn(3) > 0 {
					rq := &ioreq.Req{W: w, Class: ioreq.ClassDefault, Tag: uint32(id + 1)}
					if rng.Intn(4) == 0 {
						rq.Class = ioreq.Class(1 + rng.Intn(int(NumClasses)))
					}
					if rng.Intn(4) == 0 {
						rq.Deadline = p.Now() + sim.Time(rng.Intn(600))*sim.Microsecond
					}
					w = rq
				}
				wc := writeClasses[rng.Intn(len(writeClasses))]
				var oob nand.OOB
				var err error
				kind := rng.Intn(100)
				b, room := open()
				switch {
				case kind < 35:
					rc := ClassRead
					if rng.Intn(4) == 0 {
						rc = ClassPrefetch
					}
					oob, err = views[rc].ReadPage(w, nand.PPN(rng.Int63n(geo.TotalPages())), buf)
				case kind < 60 && room:
					data[0] = byte(op)
					err = views[wc].ProgramPage(w, geo.FirstPage(b)+nand.PPN(next[b]), data, nand.OOB{LPN: uint64(id*1000 + op)})
					next[b]++
				case kind < 70 && room:
					ppn := geo.FirstPage(b) + nand.PPN(next[b])
					next[b]++
					err = views[wc].ProgramPartial(w, ppn, 0, data[:128], nand.OOB{LPN: uint64(id*1000 + op)})
					if err == nil && rng.Intn(2) == 0 {
						err = views[wc].ProgramPartial(w, ppn, 128, data[:64], nand.OOB{})
					}
				case kind < 80 && room && next[b] > 0:
					// Within the block: always the same plane.
					src := geo.FirstPage(b) + nand.PPN(rng.Intn(next[b]))
					err = views[ClassGC].Copyback(w, src, geo.FirstPage(b)+nand.PPN(next[b]), nand.OOB{LPN: uint64(id*1000 + op)})
					next[b]++
				default:
					// Erase the fullest own block.
					b = mine[0]
					for _, m := range mine {
						if next[m] > next[b] {
							b = m
						}
					}
					ec := ClassGC
					if rng.Intn(5) == 0 {
						ec = ClassProgram
					}
					err = views[ec].EraseBlock(w, b)
					next[b] = 0
				}
				fmt.Fprintf(h, "%d %d %d %v|", op, p.Now(), oob.LPN, err)

				// Ten busy commands (erases get suspended to the cap), then ten
				// with pauses up to several erase times.
				think := sim.Time(rng.Intn(150)) * sim.Microsecond
				if t := rng.Intn(10); op%20 >= 10 && t >= 3 {
					think *= 15
					if t == 9 {
						think *= 5
					}
				}
				if id == submitters-1 {
					// One submitter thinks in whole 10 µs steps, and a zero
					// think does not yield.
					if step := 10 * sim.Microsecond; think > 0 {
						p.Sleep((think + step - 1) / step * step)
					}
				} else {
					p.Sleep(think)
				}
			}
			saw[id] = h.Sum64()
		})
	}
	k.Run()
	k.Shutdown()

	for id, v := range saw {
		fmt.Fprintf(&out, "submitter%d saw %016x\n", id, v)
	}
	ks := k.Stats()
	fmt.Fprintf(&out, "events %d\n", ks.Events)
	fmt.Fprintf(&out, "sched %+v\n", s.Stats())
	fmt.Fprintf(&out, "flash %+v\n", dev.Stats())
	return out.String(), suspends
}

// TestStormMatchesProcessDispatcher holds the state-machine dispatcher to
// what the process-based one did: testdata/storm.golden was recorded on
// the last commit that ran a process per die, and the state machine must
// reproduce it byte for byte — every command's dispatch and completion
// time, every suspension, every counter. Only the event counts were
// re-recorded since: once when the fifth submitter's 10 µs poll ticks
// became whole sleeps (FCFS fired exactly the ticks fewer), once when an
// erase slice's deadline stopped hopping through a second event before
// the wake (Priority fired one event fewer per uninterrupted slice).
func TestStormMatchesProcessDispatcher(t *testing.T) {
	var got strings.Builder
	var suspends [maxSuspends + 1]int
	for _, seed := range stormSeeds {
		for _, policy := range []Policy{FCFS, Priority} {
			tr, su := storm(seed, policy)
			fmt.Fprintf(&got, "== seed %d %v: die class tag op arrival start end suspends block\n%s", seed, policy, tr)
			for n, c := range su {
				if policy == FCFS && n > 0 && c > 0 {
					t.Errorf("seed %d: FCFS suspended an erase", seed)
				}
				suspends[n] += c
			}
		}
	}
	for n, c := range suspends {
		if c == 0 {
			t.Errorf("no erase was suspended %d times: the storm misses that path (%v)", n, suspends)
		}
	}
	const golden = "testdata/storm.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range g {
			if i >= len(w) || g[i] != w[i] {
				t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, golden, g[i], w[min(i, len(w)-1)])
			}
		}
		t.Fatalf("transcript is %d lines, %s has %d", len(g), golden, len(w))
	}
}
