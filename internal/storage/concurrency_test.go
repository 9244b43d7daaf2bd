package storage

import (
	"testing"

	"noftl/internal/sim"
)

// DelayVolume wraps a volume and charges a fixed latency per operation,
// so DES tests exercise the interleavings a zero-latency MemVolume never
// produces.
type DelayVolume struct {
	Volume
	ReadDelay  sim.Time
	WriteDelay sim.Time
}

// ReadPage implements Volume.
func (d *DelayVolume) ReadPage(ctx *IOCtx, id PageID, buf []byte) error {
	w := ctx.W
	if err := d.Volume.ReadPage(ctx, id, buf); err != nil {
		return err
	}
	w.WaitUntil(w.Now() + d.ReadDelay)
	return nil
}

// WritePage implements Volume. The inner write (the byte capture)
// happens at submit; the latency follows — the same semantics as the
// flash device.
func (d *DelayVolume) WritePage(ctx *IOCtx, id PageID, data []byte, h WriteHint) error {
	w := ctx.W
	if err := d.Volume.WritePage(ctx, id, data, h); err != nil {
		return err
	}
	w.WaitUntil(w.Now() + d.WriteDelay)
	return nil
}

// TestBufferPoolNoLostUpdatesUnderConcurrency is the regression test for
// two subtle buffer bugs: (1) clearing the dirty flag after a write-back
// wait wiped re-dirties that landed during the write; (2) pinning a page
// missing from the table during another pin's I/O loaded the page into
// two frames. Both silently lost updates. The test runs concurrent
// increments against one counter page through a slow volume and checks
// the total.
func TestBufferPoolNoLostUpdatesUnderConcurrency(t *testing.T) {
	inner := NewMemVolume(512, 256)
	vol := &DelayVolume{Volume: inner, ReadDelay: 80 * sim.Microsecond, WriteDelay: 300 * sim.Microsecond}
	bp := NewBufferPool(vol, nil, 4) // tiny pool: constant eviction pressure
	k := sim.New()

	const (
		workers   = 8
		perWorker = 200
		counters  = 6 // pages 1..6 hold one counter each
	)
	// Initialize counter pages.
	ctx0 := NewIOCtx(nil)
	for id := PageID(1); id <= counters; id++ {
		f, err := bp.Pin(ctx0, id, true)
		if err != nil {
			t.Fatal(err)
		}
		InitPage(f.Data, id, PageHeap)
		bp.Unpin(f, true, 1)
	}

	var fail error
	for wkr := 0; wkr < workers; wkr++ {
		wkr := wkr
		k.Go("inc", func(p *sim.Proc) {
			ctx := NewIOCtx(sim.ProcWaiter{P: p})
			for i := 0; i < perWorker; i++ {
				id := PageID(1 + (wkr+i)%counters)
				f, err := bp.Pin(ctx, id, false)
				if err != nil {
					fail = err
					return
				}
				// Read-modify-write on the page's Aux field (atomic
				// between waits, as engine code is).
				f.P.SetAux(f.P.Aux() + 1)
				bp.Unpin(f, true, uint64(i))
				// Touch other pages to force pressure on this one.
				other, err := bp.Pin(ctx, PageID(10+(wkr*perWorker+i)%100), true)
				if err != nil {
					fail = err
					return
				}
				bp.Unpin(other, false, 0)
			}
		})
	}
	// A db-writer cleans the frames the clock reaches next.
	stop := bp.startWriters(k, WriterConfig{N: 1, Association: AssocDieWise})
	k.RunFor(600 * sim.Second)
	stop()
	k.RunFor(sim.Second)
	k.Shutdown()
	if fail != nil {
		t.Fatal(fail)
	}

	var total uint64
	for id := PageID(1); id <= counters; id++ {
		f, err := bp.Pin(ctx0, id, false)
		if err != nil {
			t.Fatal(err)
		}
		total += f.P.Aux()
		bp.Unpin(f, false, 0)
	}
	if total != workers*perWorker {
		t.Fatalf("lost updates: counted %d, want %d", total, workers*perWorker)
	}
}

// TestEngineTPCBStyleConsistencyUnderConcurrency runs concurrent
// read-modify-write transactions through a slow volume and verifies the
// invariant that every committed delta landed exactly once.
func TestEngineTPCBStyleConsistencyUnderConcurrency(t *testing.T) {
	inner := NewMemVolume(512, 1<<14)
	data := &DelayVolume{Volume: inner, ReadDelay: 60 * sim.Microsecond, WriteDelay: 250 * sim.Microsecond}
	logv := NewMemVolume(512, 1<<14)
	ctx := NewIOCtx(nil)
	if err := Format(ctx, data, logv); err != nil {
		t.Fatal(err)
	}
	e, err := Open(ctx, data, logv, EngineConfig{BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable(ctx, "acct")
	idx, _ := e.CreateIndex(ctx, "acct_pk")
	const nAccounts = 20
	setup := e.Begin()
	for i := 0; i < nAccounts; i++ {
		rid, err := e.Insert(ctx, setup, tbl, make([]byte, 32))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.IdxInsert(ctx, setup, idx, int64(i), rid); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(ctx, setup); err != nil {
		t.Fatal(err)
	}

	k := sim.New()
	var committedDeltas int64
	var fatal error
	const workers = 6
	stop := e.StartWriters(k, WriterConfig{N: 2, Association: AssocGlobal})
	for wkr := 0; wkr < workers; wkr++ {
		wkr := wkr
		k.Go("tx", func(p *sim.Proc) {
			c := NewIOCtx(sim.ProcWaiter{P: p})
			for i := 0; i < 150; i++ {
				key := int64((wkr + i) % nAccounts)
				delta := int64(wkr*1000 + i)
				tx := e.Begin()
				rid, found, err := e.IdxLookup(c, tx, idx, key)
				if err != nil || !found {
					_ = e.Abort(c, tx)
					continue // lock timeout on the instant lock: retry-ish
				}
				row, err := e.FetchForUpdate(c, tx, rid)
				if err != nil {
					_ = e.Abort(c, tx)
					continue
				}
				cur := int64(row[0]) | int64(row[1])<<8 | int64(row[2])<<16 | int64(row[3])<<24 |
					int64(row[4])<<32 | int64(row[5])<<40 | int64(row[6])<<48 | int64(row[7])<<56
				nv := cur + delta
				for b := 0; b < 8; b++ {
					row[b] = byte(nv >> (8 * b))
				}
				if err := e.Update(c, tx, rid, row); err != nil {
					_ = e.Abort(c, tx)
					continue
				}
				if err := e.Commit(c, tx); err != nil {
					fatal = err
					return
				}
				committedDeltas += delta
			}
		})
	}
	k.RunFor(600 * sim.Second)
	stop()
	k.RunFor(sim.Second)
	k.Shutdown()
	if fatal != nil {
		t.Fatal(fatal)
	}

	var sum int64
	if err := e.Scan(ctx, tbl, func(rid RID, rec []byte) bool {
		sum += int64(rec[0]) | int64(rec[1])<<8 | int64(rec[2])<<16 | int64(rec[3])<<24 |
			int64(rec[4])<<32 | int64(rec[5])<<40 | int64(rec[6])<<48 | int64(rec[7])<<56
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if sum != committedDeltas {
		t.Fatalf("balance drift: accounts sum to %d, committed deltas %d (lost/doubled updates)",
			sum, committedDeltas)
	}
	if committedDeltas == 0 {
		t.Fatal("nothing committed; test did not exercise concurrency")
	}
}

// TestRecoveryFuzzyCheckpointDirtyPages crashes right after a checkpoint
// taken while a dirty page (with a pre-checkpoint record) was pinned:
// the flush skips it without waiting, the checkpoint's redo bound stays
// at or below its recLSN, and redo starts there, not at the checkpoint.
func TestRecoveryFuzzyCheckpointDirtyPages(t *testing.T) {
	e, ctx, data, logv := newTestEngine(t, 16)
	tbl, _ := e.CreateTable(ctx, "t")
	tx := e.Begin()
	rid, _ := e.Insert(ctx, tx, tbl, []byte("needs-redo"))
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	// Keep the page pinned through the checkpoint so FlushSnapshot skips
	// it: the checkpoint becomes genuinely fuzzy.
	f, err := e.bp.Pin(ctx, rid.Page, false)
	if err != nil {
		t.Fatal(err)
	}
	t0 := ctx.W.Now()
	if err := e.bp.FlushSnapshot(ctx); err != nil || ctx.W.Now() != t0 || !f.dirty {
		t.Fatalf("flush over a pinned page: %v after %v, dirty %v; want it skipped at once", err, ctx.W.Now()-t0, f.dirty)
	}
	if err := e.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	ckpt, _ := e.wal.ReadAnchor(ctx)
	recs, _, err := e.wal.RecoverScan(ctx, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if redo := uint64(recs[0].Key); recs[0].Type != RecCheckpoint || redo > f.recLSN {
		t.Fatalf("checkpoint redo start %d, want at or below the pinned page's recLSN %d", redo, f.recLSN)
	}
	e.bp.Unpin(f, false, 0)
	// Crash without ever writing the data page.
	e2, ctx2 := crashAndReopen(t, data, logv, 16)
	tx2 := e2.Begin()
	rec, err := e2.Fetch(ctx2, tx2, rid)
	if err != nil || string(rec) != "needs-redo" {
		t.Fatalf("fuzzy checkpoint lost the row: %q %v", rec, err)
	}
	_ = e2.Commit(ctx2, tx2)
}

// TestBufferPoolCoalescesConcurrentLoads: two processes pin the same
// absent page; exactly one read must hit the volume.
func TestBufferPoolCoalescesConcurrentLoads(t *testing.T) {
	inner := NewMemVolume(512, 64)
	reads := 0
	vol := &countingVolume{Volume: inner, reads: &reads}
	slow := &DelayVolume{Volume: vol, ReadDelay: sim.Millisecond}
	bp := NewBufferPool(slow, nil, 8)
	k := sim.New()
	for i := 0; i < 4; i++ {
		k.Go("pinner", func(p *sim.Proc) {
			ctx := NewIOCtx(sim.ProcWaiter{P: p})
			f, err := bp.Pin(ctx, 7, false)
			if err != nil {
				t.Errorf("pin: %v", err)
				return
			}
			bp.Unpin(f, false, 0)
		})
	}
	k.Run()
	if reads != 1 {
		t.Fatalf("page loaded %d times, want 1 (split-brain frames)", reads)
	}
}

type countingVolume struct {
	Volume
	reads *int
}

func (c *countingVolume) ReadPage(ctx *IOCtx, id PageID, buf []byte) error {
	*c.reads++
	return c.Volume.ReadPage(ctx, id, buf)
}
