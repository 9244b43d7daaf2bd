package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/nand"
	"noftl/internal/noftl"
)

// keepDeadPages is a NoFTL volume whose Deallocate does nothing — what
// BlockVolume does, because a legacy block interface cannot say a page
// is dead. Every other method is the NoFTL volume's.
type keepDeadPages struct{ *NoFTLVolume }

func (keepDeadPages) Deallocate(PageID) {}

// gcAfterDrop creates a small table B, fills table A to about half the
// volume and drops it, then updates random rows of B in place until GC
// has erased many blocks. It returns the pages GC copied and the blocks
// it erased, and checks that every row of B reads back intact.
func gcAfterDrop(t *testing.T, wrap func(*NoFTLVolume) Volume) (copies, erases int64) {
	t.Helper()
	dc := flash.EmulatorConfig(1, 8, nand.SLC) // 2 planes × 16 blocks × 64 pages
	nv, err := noftl.New(flash.New(dc), noftl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	data := wrap(NewNoFTLVolume(nv))
	logv := NewMemVolume(dc.Geometry.PageSize, 1<<12)
	ctx := NewIOCtx(nil)
	if err := Format(ctx, data, logv); err != nil {
		t.Fatal(err)
	}
	e, err := Open(ctx, data, logv, EngineConfig{BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	commit := func(tx *Tx) {
		t.Helper()
		if err := e.Commit(ctx, tx); err != nil {
			t.Fatal(err)
		}
		if err := e.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Four rows fill a page; records are fixed-size.
	row := func(name string, i, gen int) []byte {
		return fmt.Appendf(bytes.Repeat([]byte{'.'}, 960), "%s %d gen %06d", name, i, gen)
	}

	b, _ := e.CreateTable(ctx, "b")
	rids := make([]RID, 4*nv.LogicalPages()/3) // a third of the volume
	gen := make([]int, len(rids))
	for i := 0; i < len(rids); i += 64 {
		tx := e.Begin()
		for j := i; j < min(i+64, len(rids)); j++ {
			if rids[j], err = e.Insert(ctx, tx, b, row("b", j, 0)); err != nil {
				t.Fatal(err)
			}
		}
		commit(tx)
	}

	a, _ := e.CreateTable(ctx, "a")
	for i := 0; i < 4*int(nv.LogicalPages())/2; i += 64 {
		tx := e.Begin()
		for j := i; j < i+64; j++ {
			if _, err := e.Insert(ctx, tx, a, row("a", j, 0)); err != nil {
				t.Fatal(err)
			}
		}
		commit(tx)
	}
	if err := e.DropTable(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	before := nv.Stats()

	// Random updates leave live rows in the blocks GC picks, so what it
	// copies grows with the share of the flash still holding live pages.
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 1500; n++ {
		tx := e.Begin()
		for range 4 {
			i := rng.Intn(len(rids))
			gen[i]++
			if err := e.Update(ctx, tx, rids[i], row("b", i, gen[i])); err != nil {
				t.Fatal(err)
			}
		}
		commit(tx)
	}
	for i, rid := range rids {
		got, err := e.FetchDirty(ctx, rid)
		if err != nil || !bytes.Equal(got, row("b", i, gen[i])) {
			t.Fatalf("row %d of b = %.20q, %v; want %.20q", i, got, err, row("b", i, gen[i]))
		}
	}
	s := nv.Stats()
	return s.GCCopybacks + s.GCWrites - before.GCCopybacks - before.GCWrites, s.Erases - before.Erases
}

// TestDeallocationSavesGCCopies: the free-space manager's dead-page
// knowledge (contribution iii) reaches the flash GC through
// NoFTLVolume.Deallocate, so the pages of a dropped table stop taking
// flash space. The same run over a volume that keeps them live leaves
// GC less room and must copy more.
func TestDeallocationSavesGCCopies(t *testing.T) {
	native, nativeErases := gcAfterDrop(t, func(v *NoFTLVolume) Volume { return v })
	kept, keptErases := gcAfterDrop(t, func(v *NoFTLVolume) Volume { return keepDeadPages{v} })
	t.Logf("after the drop, GC copied %d pages in %d erases with deallocation, %d in %d without",
		native, nativeErases, kept, keptErases)
	if nativeErases < 4 || keptErases < 4 {
		t.Fatalf("GC erased %d and %d blocks; the run must erase several", nativeErases, keptErases)
	}
	if native >= kept {
		t.Fatalf("GC copied %d pages with deallocation, %d without: deallocation must save copies", native, kept)
	}
}
