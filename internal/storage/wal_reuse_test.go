package storage

import (
	"bytes"
	"fmt"
	"testing"

	"noftl/internal/ioreq"
	"noftl/internal/sim"
)

// ringOn opens a VolumeLog ring on vol.
func ringOn(vol Volume) *VolumeLog {
	r := NewVolumeLog(vol)
	if err := r.Scan(NewIOCtx(nil), func(int64, []byte) error { return nil }); err != nil {
		panic(err) // a memory volume never fails a read
	}
	return r
}

// walModes runs fn on a WAL over a ring on a memory volume. reopen
// returns a fresh WAL over the same volume, the way a restart would;
// delay is what one page write costs a simulated process.
func walModes(t *testing.T, pageSize, pages int, delay sim.Time, fn func(t *testing.T, w *WAL, reopen func() *WAL)) {
	t.Run("append-only", func(t *testing.T) {
		mem := NewMemVolume(pageSize, int64(pages))
		zero := make([]byte, pageSize)
		for id := 0; id < pages; id++ { // MemVolume allocates a page on its first write
			if err := mem.WritePage(NewIOCtx(nil), PageID(id), zero, HintLog); err != nil {
				t.Fatal(err)
			}
		}
		vol := &DelayVolume{Volume: mem, WriteDelay: delay}
		w := NewWAL(ringOn(vol))
		w.pageIdx = make([]logPageRef, 0, 4*pages) // grows by one entry per flushed page
		fn(t, w, func() *WAL { return NewWAL(ringOn(vol)) })
	})
}

// At steady state a group commit formats its pages into the WAL's one
// flush page and compacts the tail in place: nothing is allocated.
func TestFlushReusesItsPage(t *testing.T) {
	walModes(t, 4096, 512, 0, func(t *testing.T, w *WAL, _ func() *WAL) {
		ctx := NewIOCtx(nil).WithClass(ioreq.ClassWAL)
		rec := benchRecord()
		r := &LogRecord{Type: RecHeapUpdate, Tx: 42, Page: 1337, Slot: 5, Before: rec, After: rec}
		round := func() {
			for i := 0; i < 32; i++ {
				w.Append(r)
			}
			if err := w.Flush(ctx, w.NextLSN()); err != nil {
				t.Fatal(err)
			}
		}
		round() // grows the tail to its working size
		if n := testing.AllocsPerRun(50, round); n != 0 {
			t.Errorf("32 appends + Flush: %v allocs per round, want 0", n)
		}
	})
}

// Records appended while a flusher is parked inside a page write extend
// the tail the flusher compacts in place when it wakes; every one of them
// must come back from the log, once, in LSN order.
func TestAppendDuringFlushSurvivesCompaction(t *testing.T) {
	walModes(t, 512, 256, 300*sim.Microsecond, func(t *testing.T, w *WAL, reopen func() *WAL) {
		type logged struct {
			lsn     uint64
			payload []byte
		}
		var want []logged
		duringFlush := 0
		appendRec := func(who, i, size int) {
			payload := bytes.Repeat([]byte{byte(who)<<4 | byte(i)&15}, size)
			copy(payload, fmt.Sprintf("%d/%d", who, i))
			if w.flushing {
				duringFlush++
			}
			lsn := w.Append(&LogRecord{Type: RecHeapInsert, Tx: uint64(who), Page: PageID(i), After: payload})
			want = append(want, logged{lsn, payload})
		}
		k := sim.New()
		k.Go("flusher", func(p *sim.Proc) {
			ctx := NewIOCtx(sim.ProcWaiter{P: p})
			for round := 0; round < 6; round++ {
				for i := 0; i < 3; i++ {
					appendRec(0, round*3+i, 400) // three pages a flush: three parks
				}
				if err := w.Flush(ctx, w.NextLSN()); err != nil {
					t.Error(err)
					return
				}
			}
		})
		for who := 1; who <= 3; who++ {
			k.Go(fmt.Sprintf("appender%d", who), func(p *sim.Proc) {
				for i := 0; i < 40; i++ {
					p.Sleep(sim.Time(who) * 37 * sim.Microsecond)
					appendRec(who, i, 20+who*7+i)
				}
			})
		}
		k.Run()
		k.Shutdown()
		if duringFlush < 30 {
			t.Fatalf("only %d appends landed while a flush was in progress; the test lost its point", duringFlush)
		}
		ctx := NewIOCtx(nil)
		if err := w.Flush(ctx, w.NextLSN()); err != nil {
			t.Fatal(err)
		}
		got, end, err := reopen().RecoverScan(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || end != w.NextLSN() {
			t.Fatalf("recovered %d records ending at %d, want %d ending at %d", len(got), end, len(want), w.NextLSN())
		}
		for i, r := range got {
			if r.LSN != want[i].lsn || !bytes.Equal(r.After, want[i].payload) {
				t.Fatalf("record %d: lsn %d payload %q, want lsn %d payload %q",
					i, r.LSN, r.After, want[i].lsn, want[i].payload)
			}
		}
	})
}

// Append encodes before it returns; what the caller does to the record or
// its buffers afterwards never reaches the log.
func TestAppendDoesNotRetainPayload(t *testing.T) {
	walModes(t, 512, 64, 0, func(t *testing.T, w *WAL, reopen func() *WAL) {
		ctx := NewIOCtx(nil)
		f := &Frame{Data: bytes.Repeat([]byte{0x11}, 300)}
		before := []byte("before-image")
		rec := &LogRecord{Type: RecHeapUpdate, Tx: 7, Page: 3, Slot: 1, Before: before, After: f.Data}
		w.Append(rec)
		for i := range f.Data {
			f.Data[i] = 0xEE
		}
		copy(before, "XXXXXX")
		rec.Tx, rec.Page, rec.After = 99, 99, nil
		if err := w.Flush(ctx, w.NextLSN()); err != nil {
			t.Fatal(err)
		}
		got, _, err := reopen().RecoverScan(ctx, 0)
		if err != nil || len(got) != 1 {
			t.Fatalf("recovered %d records, err %v", len(got), err)
		}
		r := got[0]
		if r.Tx != 7 || r.Page != 3 || string(r.Before) != "before-image" ||
			!bytes.Equal(r.After, bytes.Repeat([]byte{0x11}, 300)) {
			t.Errorf("logged record changed after Append returned: tx %d page %d before %q after[0] %#x",
				r.Tx, r.Page, r.Before, r.After[0])
		}
	})
}

// TestGroupCommitWaiterResumesWhenTheFlushEnds: a committer that finds
// its record already inside another process's flush resumes the instant
// that flush ends — on no tick grid — and writes nothing itself.
func TestGroupCommitWaiterResumesWhenTheFlushEnds(t *testing.T) {
	const delay = 333*sim.Microsecond + 7
	walModes(t, 512, 64, delay, func(t *testing.T, w *WAL, _ func() *WAL) {
		k := sim.New()
		var leader, follower sim.Time
		k.Go("leader", func(p *sim.Proc) {
			w.Append(&LogRecord{Type: RecCommit, Tx: 1})
			w.Append(&LogRecord{Type: RecCommit, Tx: 2}) // the follower's commit record
			if err := w.Flush(NewIOCtx(sim.ProcWaiter{P: p}), w.NextLSN()); err != nil {
				t.Error(err)
			}
			leader = p.Now()
		})
		k.Go("follower", func(p *sim.Proc) {
			p.Sleep(5)
			if err := w.Flush(NewIOCtx(sim.ProcWaiter{P: p}), w.NextLSN()); err != nil {
				t.Error(err)
			}
			follower = p.Now()
		})
		k.Run()
		k.Shutdown()
		if leader != delay || follower != leader || w.Flushes != 1 {
			t.Errorf("flush ended at %v, the follower resumed at %v, %d flushes; want %v, the same instant, 1", leader, follower, w.Flushes, delay)
		}
	})
}
