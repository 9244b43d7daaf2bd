package storage

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/sim"
)

func TestBufferPoolHitMissEvict(t *testing.T) {
	vol := NewMemVolume(512, 64)
	bp := NewBufferPool(vol, nil, 4)
	ctx := NewIOCtx(nil)

	f, err := bp.Pin(ctx, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	f.Data[100] = 0xAA
	bp.Unpin(f, true, 1)

	f2, err := bp.Pin(ctx, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Data[100] != 0xAA {
		t.Error("cached page lost data")
	}
	bp.Unpin(f2, false, 0)
	st := bp.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}

	// Fill past capacity: the dirty page must be written back on evict.
	for id := PageID(10); id < 20; id++ {
		f, err := bp.Pin(ctx, id, true)
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(f, false, 0)
	}
	buf := make([]byte, 512)
	if err := vol.ReadPage(ctx, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[100] != 0xAA {
		t.Error("dirty page evicted without write-back")
	}
	if bp.Stats().SyncWrites == 0 {
		t.Error("no sync writes counted")
	}
}

// TestBufferPoolWriteBackClearsDirty: a writer cleans the frame the
// eviction hand reaches next and never a referenced one, and the
// eviction that follows meets a clean victim.
func TestBufferPoolWriteBackClearsDirty(t *testing.T) {
	vol := NewMemVolume(512, 64)
	bp := NewBufferPool(vol, nil, 8)
	ctx := NewIOCtx(nil)
	frames := make([]*Frame, 8)
	for id := range PageID(8) { // fills frames 0..7; the hand wraps to frame 0
		f, _ := bp.Pin(ctx, id, true)
		frames[id] = f
		bp.Unpin(f, true, uint64(id)+1)
	}
	f, _ := bp.Pin(ctx, 0, false) // a hit: page 0's reference bit is set
	bp.Unpin(f, false, 0)
	// The look-ahead is a quarter of the pool: frames 0 and 1.
	if ok, err := bp.clean(ctx, 0); !ok || err != nil {
		t.Fatalf("clean = %v, %v; want page 1 written", ok, err)
	}
	if !frames[0].dirty || frames[1].dirty {
		t.Fatalf("dirty after clean: page 0 %v, page 1 %v; want the referenced page 0 left dirty", frames[0].dirty, frames[1].dirty)
	}
	if ok, _ := bp.clean(ctx, 0); ok {
		t.Fatal("clean wrote again: nothing in the look-ahead is due")
	}
	g, err := bp.Pin(ctx, 8, true) // the hand clears page 0's bit and takes frame 1
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(g, false, 0)
	if g != frames[1] || bp.table[1] != nil {
		t.Fatal("the eviction did not take the cleaned frame")
	}
	if st := bp.Stats(); st.AsyncWrites != 1 || st.SyncWrites != 0 {
		t.Errorf("async/sync writes = %d/%d, want 1/0", st.AsyncWrites, st.SyncWrites)
	}
}

// TestPinWaitsForAnUnpin: a miss that finds every frame pinned parks
// until a frame loses its last pin and returns at that instant. A
// processless caller, which nothing can release, fails after 3 sim-s.
func TestPinWaitsForAnUnpin(t *testing.T) {
	bp := NewBufferPool(NewMemVolume(512, 64), nil, 4)
	ctx0 := NewIOCtx(nil)
	var held []*Frame
	for id := PageID(1); id <= 4; id++ {
		f, err := bp.Pin(ctx0, id, true)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, f)
	}
	if _, err := bp.Pin(ctx0, 9, true); err == nil || !strings.Contains(err.Error(), "wedged") || ctx0.W.Now() != 3*sim.Second {
		t.Fatalf("processless pin of a full pool: %v at %v, want wedged at 3s", err, ctx0.W.Now())
	}

	const release = 137 * sim.Microsecond // off any polling grid
	k := sim.New()
	k.Go("holder", func(p *sim.Proc) {
		p.Sleep(release)
		bp.Unpin(held[1], false, 0)
	})
	var got sim.Time
	k.Go("miss", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		f, err := bp.Pin(NewIOCtx(sim.ProcWaiter{P: p}), 9, true)
		if err != nil {
			t.Error(err)
			return
		}
		got = p.Now()
		bp.Unpin(f, false, 0)
	})
	k.Run()
	if got != release {
		t.Fatalf("miss resumed at %v, want the unpin's %v", got, release)
	}
}

// failWriteVolume takes 100 µs to fail every page write.
type failWriteVolume struct{ Volume }

var errWriteFailed = errors.New("injected write error")

func (v failWriteVolume) WritePage(ctx *IOCtx, id PageID, data []byte, h WriteHint) error {
	ctx.W.WaitUntil(ctx.W.Now() + 100*sim.Microsecond)
	return errWriteFailed
}

// TestFailedEvictionKeepsOtherPins: an eviction whose write-back fails
// drops its own claim only. A hit that pinned the victim during the
// write keeps its pin, and its unpin succeeds.
func TestFailedEvictionKeepsOtherPins(t *testing.T) {
	bp := NewBufferPool(failWriteVolume{NewMemVolume(512, 64)}, nil, 4)
	ctx0 := NewIOCtx(nil)
	for id := PageID(1); id <= 4; id++ { // the hand wraps to page 1's frame
		f, err := bp.Pin(ctx0, id, true)
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(f, id == 1, 1)
	}
	k := sim.New()
	var missErr error
	k.Go("miss", func(p *sim.Proc) { // evicts dirty page 1; the write fails at 100 µs
		_, missErr = bp.Pin(NewIOCtx(sim.ProcWaiter{P: p}), 5, true)
	})
	k.Go("hit", func(p *sim.Proc) {
		p.Sleep(10 * sim.Microsecond)
		f, err := bp.Pin(NewIOCtx(sim.ProcWaiter{P: p}), 1, false)
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * sim.Microsecond)
		bp.Unpin(f, false, 0)
	})
	k.Run()
	if !errors.Is(missErr, errWriteFailed) {
		t.Fatalf("miss: %v, want the write error", missErr)
	}
	f := bp.table[1]
	if f == nil {
		t.Fatal("page 1 left the pool")
	}
	if f.pin != 0 || !f.dirty {
		t.Fatalf("page 1 after the failed eviction: pin %d, dirty %v; want 0, true", f.pin, f.dirty)
	}
}

// TestBufferPoolWriteBackGlobalPartitioning: under global association a
// page's share is its 64-page chunk mod the writer count, so each writer
// cleans only its chunks' frames even when another share's frame is
// nearer the hand.
func TestBufferPoolWriteBackGlobalPartitioning(t *testing.T) {
	vol := NewMemVolume(512, 256)
	bp := NewBufferPool(vol, nil, 16)
	ctx := NewIOCtx(nil)
	bp.layout(2, true)
	// Chunk 0 (share 0) and chunk 1 (share 1) alternate in frames 0..15;
	// the look-ahead from the wrapped hand covers frames 0..3.
	for i := range PageID(8) {
		for _, id := range []PageID{1 + i, 65 + i} {
			f, _ := bp.Pin(ctx, id, true)
			bp.Unpin(f, true, 1)
		}
	}
	n := 0
	for {
		ok, err := bp.clean(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	var clean []PageID
	for _, f := range bp.frames {
		if !f.dirty {
			clean = append(clean, f.ID)
		}
	}
	if n != 2 || !slices.Equal(clean, []PageID{65, 66}) {
		t.Errorf("writer 1 wrote %d pages, clean now %v; want 2 and [65 66] (its chunk, within the look-ahead)", n, clean)
	}
}

// TestEngineOnNoFTLVolume runs the engine end-to-end over the flash
// stack: NAND -> device -> noftl.Volume -> engine, including recovery
// with the mapping rebuilt from flash OOB.
func TestEngineOnNoFTLVolume(t *testing.T) {
	mk := func() (*flash.Device, *noftl.Volume) {
		dev := flash.New(flash.Config{
			Geometry: nand.Geometry{
				Channels: 2, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: 64, PagesPerBlock: 16, PageSize: 512, OOBSize: 16,
			},
			Cell: nand.SLC,
			Nand: nand.Options{StoreData: true},
		})
		v, err := noftl.New(dev, noftl.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return dev, v
	}
	devData, volData := mk()
	_, volLog := mk()
	data := NewNoFTLVolume(volData)
	logv := NewNoFTLVolume(volLog)
	ctx := NewIOCtx(&sim.ClockWaiter{})
	if err := Format(ctx, data, logv); err != nil {
		t.Fatal(err)
	}
	e, err := Open(ctx, data, logv, EngineConfig{BufferFrames: 32})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable(ctx, "accounts")
	idx, _ := e.CreateIndex(ctx, "accounts_pk")
	for i := 0; i < 100; i++ {
		tx := e.Begin()
		rid, err := e.Insert(ctx, tx, tbl, []byte{byte(i), 1, 2, 3, 4, 5, 6, 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.IdxInsert(ctx, tx, idx, int64(i), rid); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(ctx, tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if devData.Stats().Programs == 0 {
		t.Fatal("engine never reached the flash device")
	}

	// Restart on the same flash state: the NoFTL mapping is rebuilt from
	// OOB, then the engine recovers from its own log.
	volData2, err := noftl.Rebuild(devData, noftl.Config{}, ioreq.Plain(&sim.ClockWaiter{}))
	if err != nil {
		t.Fatal(err)
	}
	data2 := NewNoFTLVolume(volData2)
	e2, err := Open(ctx, data2, logv, EngineConfig{BufferFrames: 32})
	if err != nil {
		t.Fatal(err)
	}
	idx2, err := e2.OpenTable("accounts_pk")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rid, found, err := e2.IdxLookup(ctx, nil, idx2, int64(i))
		if err != nil || !found {
			t.Fatalf("key %d lost across flash restart: %v", i, err)
		}
		tx := e2.Begin()
		rec, err := e2.Fetch(ctx, tx, rid)
		if err != nil || rec[0] != byte(i) {
			t.Fatalf("record %d wrong after restart: %v %v", i, rec, err)
		}
		_ = e2.Commit(ctx, tx)
	}
}

// TestWritersDrainDirtyPages runs db-writers as DES processes under both
// associations: one large record per page, so the clock turns over a
// small pool. The writers take over most write-backs from the evicting
// client, fire no kernel event while parked with nothing due, and exit
// when stopped.
func TestWritersDrainDirtyPages(t *testing.T) {
	for _, assoc := range []WriterAssociation{AssocGlobal, AssocDieWise} {
		k := sim.New()
		data := NewMemVolume(512, 1024)
		logv := NewMemVolume(512, 4096) // one log page per flush, no checkpoints
		ctx := NewIOCtx(nil)
		if err := Format(ctx, data, logv); err != nil {
			t.Fatal(err)
		}
		e, err := Open(ctx, data, logv, EngineConfig{BufferFrames: 16})
		if err != nil {
			t.Fatal(err)
		}
		tbl, _ := e.CreateTable(ctx, "t")
		stop := e.StartWriters(k, WriterConfig{N: 2, Association: assoc})
		k.Go("client", func(p *sim.Proc) {
			c := NewIOCtx(sim.ProcWaiter{P: p})
			for i := 0; i < 200; i++ {
				tx := e.Begin()
				if _, err := e.Insert(c, tx, tbl, make([]byte, 400)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if err := e.Commit(c, tx); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				p.Sleep(10 * sim.Microsecond)
			}
		})
		k.RunFor(sim.Second)
		idle := k.Stats().Events
		k.RunFor(sim.Second)
		if ev := k.Stats().Events - idle; ev != 0 {
			t.Errorf("%v: parked writers fired %d kernel events with nothing due", assoc, ev)
		}
		stop()
		k.RunFor(sim.Millisecond)
		if k.Alive() != 0 {
			t.Errorf("%v: %d processes alive after stop", assoc, k.Alive())
		}
		k.Shutdown()
		st := e.bp.Stats()
		t.Logf("%v: %d write-backs by the writers, %d by evictions", assoc, st.AsyncWrites, st.SyncWrites)
		if st.AsyncWrites <= st.SyncWrites {
			t.Errorf("%v: writers wrote %d pages, evictions %d; want the writers ahead", assoc, st.AsyncWrites, st.SyncWrites)
		}
		if e.Commits != 200 {
			t.Errorf("%v: commits = %d, want 200", assoc, e.Commits)
		}
	}
	if AssocGlobal.String() != "global" || AssocDieWise.String() != "die-wise" {
		t.Error("WriterAssociation.String broken")
	}
}
