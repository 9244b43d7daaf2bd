package trace

import (
	"bytes"
	"math/rand"
	"testing"

	"noftl/internal/blockdev"
	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/sim"
	"noftl/internal/storage"
)

func TestRecorderCapturesEngineIO(t *testing.T) {
	inner := storage.NewMemVolume(512, 4096)
	recv := NewRecorder(inner)
	logv := storage.NewMemVolume(512, 4096)
	ctx := storage.NewIOCtx(nil)
	if err := storage.Format(ctx, recv, logv); err != nil {
		t.Fatal(err)
	}
	e, err := storage.Open(ctx, recv, logv, storage.EngineConfig{BufferFrames: 8})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.CreateTable(ctx, "t")
	tx := e.Begin()
	for i := 0; i < 50; i++ {
		if _, err := e.Insert(ctx, tx, tbl, bytes.Repeat([]byte{1}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	reads, writes, _ := recv.T.Counts()
	if writes == 0 || reads == 0 {
		t.Errorf("trace empty: r=%d w=%d", reads, writes)
	}
	if err := e.DropTable(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	_, _, trims := recv.T.Counts()
	if trims == 0 {
		t.Error("DropTable produced no trim ops")
	}
}

// replayDevice is a small two-die SLC drive with 512-byte pages.
func replayDevice() *flash.Device {
	return flash.New(flash.Config{
		Geometry: nand.Geometry{Channels: 2, ChipsPerChannel: 1, DiesPerChip: 1,
			PlanesPerDie: 1, BlocksPerPlane: 64, PagesPerBlock: 16, PageSize: 512, OOBSize: 16},
		Cell: nand.SLC,
	})
}

func replayTargets(t *testing.T) (ftl.FTL, NoFTLTarget) {
	t.Helper()
	f, err := ftl.NewFasterFTL(replayDevice(), ftl.FasterConfig{SecondChance: true})
	if err != nil {
		t.Fatal(err)
	}
	v, err := noftl.New(replayDevice(), noftl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return f, NoFTLTarget{V: v}
}

func TestReplayAgainstBothStacks(t *testing.T) {
	f, nv := replayTargets(t)
	tr := &Trace{PageSize: 512}
	rng := rand.New(rand.NewSource(3))
	span := int64(600)
	for lpn := int64(0); lpn < span; lpn++ {
		tr.Ops = append(tr.Ops, Op{Kind: OpWrite, LPN: lpn})
	}
	for i := 0; i < 3000; i++ {
		tr.Ops = append(tr.Ops, Op{Kind: OpWrite, LPN: rng.Int63n(span)})
		if i%5 == 0 {
			tr.Ops = append(tr.Ops, Op{Kind: OpRead, LPN: rng.Int63n(span)})
		}
	}
	if _, err := Replay(tr, f, &sim.ClockWaiter{}, ReplayOptions{DropTrims: true}); err != nil {
		t.Fatalf("faster replay: %v", err)
	}
	if _, err := Replay(tr, nv, &sim.ClockWaiter{}, ReplayOptions{}); err != nil {
		t.Fatalf("noftl replay: %v", err)
	}
	fs := f.Stats()
	ns := nv.V.Stats()
	if fs.HostWrites != ns.HostWrites {
		t.Errorf("replay write counts diverged: %d vs %d", fs.HostWrites, ns.HostWrites)
	}
	// The Figure-3 shape: the hybrid FTL relocates more than NoFTL.
	if fs.GCCopybacks+fs.GCWrites <= ns.GCCopybacks+ns.GCWrites {
		t.Errorf("FASTer GC (%d) should exceed NoFTL's (%d)",
			fs.GCCopybacks+fs.GCWrites, ns.GCCopybacks+ns.GCWrites)
	}
}

func TestReplayDropTrims(t *testing.T) {
	f, nv := replayTargets(t)
	tr := &Trace{PageSize: 512}
	for lpn := int64(0); lpn < 100; lpn++ {
		tr.Ops = append(tr.Ops,
			Op{Kind: OpWrite, LPN: lpn}, Op{Kind: OpTrim, LPN: lpn})
	}
	if _, err := Replay(tr, nv, &sim.ClockWaiter{}, ReplayOptions{DropTrims: true}); err != nil {
		t.Fatal(err)
	}
	if nv.V.Stats().Trims != 0 {
		t.Error("DropTrims leaked trims")
	}
	if _, err := Replay(tr, nv, &sim.ClockWaiter{}, ReplayOptions{}); err != nil {
		t.Fatal(err)
	}
	if nv.V.Stats().Trims != 100 {
		t.Errorf("trims = %d, want 100", nv.V.Stats().Trims)
	}
	// The block interface has no Trim: its trims must be dropped.
	bd := blockdev.New(f, blockdev.Config{})
	if _, err := Replay(tr, bd, &sim.ClockWaiter{}, ReplayOptions{}); err == nil {
		t.Error("trim replayed on the block interface")
	}
	if _, err := Replay(tr, bd, &sim.ClockWaiter{}, ReplayOptions{DropTrims: true}); err != nil {
		t.Errorf("dropped trims: %v", err)
	}
}
