package storage

import (
	"noftl/internal/ioreq"
	"testing"

	"noftl/internal/flash"
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

func TestBufferPoolWriteBackClearsDirty(t *testing.T) {
	vol := NewMemVolume(512, 64)
	bp := NewBufferPool(vol, nil, 8)
	ctx := NewIOCtx(nil)
	for id := PageID(0); id < 4; id++ {
		f, _ := bp.Pin(ctx, id, true)
		f.Data[0] = byte(id)
		bp.Unpin(f, true, uint64(id)+1)
	}
	if bp.TotalDirty() != 4 {
		t.Fatalf("dirty = %d, want 4", bp.TotalDirty())
	}
	for {
		ok, err := bp.WriteBack(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if bp.TotalDirty() != 0 {
		t.Errorf("dirty = %d after write-back", bp.TotalDirty())
	}
	if bp.Stats().AsyncWrites != 4 {
		t.Errorf("async writes = %d", bp.Stats().AsyncWrites)
	}
}

func TestBufferPoolWriteBackGlobalPartitioning(t *testing.T) {
	vol := NewMemVolume(512, 256)
	bp := NewBufferPool(vol, nil, 16)
	ctx := NewIOCtx(nil)
	// Pages from two different 64-page chunks: chunk 0 belongs to writer
	// 0 of 2, chunk 1 to writer 1 (chunk partitioning keeps a global
	// writer's set spanning every die; see WriteBackGlobal).
	for _, id := range []PageID{1, 2, 3, 4, 65, 66, 67, 68} {
		f, _ := bp.Pin(ctx, id, true)
		bp.Unpin(f, true, 1)
	}
	n := 0
	for {
		ok, err := bp.WriteBackGlobal(ctx, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 4 {
		t.Errorf("writer 0 flushed %d pages, want 4 (its chunk)", n)
	}
	if bp.TotalDirty() != 4 {
		t.Errorf("dirty = %d, want 4 (writer 1's chunk remains)", bp.TotalDirty())
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

// TestWritersDrainDirtyPages runs db-writers as DES processes.
func TestWritersDrainDirtyPages(t *testing.T) {
	for _, assoc := range []WriterAssociation{AssocGlobal, AssocDieWise} {
		k := sim.New()
		data := NewMemVolume(512, 1024)
		logv := NewMemVolume(512, 1024)
		ctx := NewIOCtx(nil)
		if err := Format(ctx, data, logv); err != nil {
			t.Fatal(err)
		}
		e, err := Open(ctx, data, logv, EngineConfig{BufferFrames: 64})
		if err != nil {
			t.Fatal(err)
		}
		tbl, _ := e.CreateTable(ctx, "t")
		stop := e.StartWriters(k, WriterConfig{N: 2, Association: assoc})
		k.Go("client", func(p *sim.Proc) {
			c := NewIOCtx(sim.ProcWaiter{P: p})
			for i := 0; i < 200; i++ {
				tx := e.Begin()
				if _, err := e.Insert(c, tx, tbl, []byte("dirty-page-maker")); err != nil {
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
		stop()
		k.RunFor(sim.Millisecond)
		k.Shutdown()
		if e.bp.Stats().AsyncWrites == 0 {
			t.Errorf("%v: db-writers never wrote", assoc)
		}
		if e.Commits != 200 {
			t.Errorf("%v: commits = %d, want 200", assoc, e.Commits)
		}
	}
	if AssocGlobal.String() != "global" || AssocDieWise.String() != "die-wise" {
		t.Error("WriterAssociation.String broken")
	}
}
