package noftl

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/ioreq"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// TestRelocateAcrossPlanesKeepsProgramOrder collects a victim in each
// plane of one die at once, with plane 0 out of free blocks and frontier
// room, so every move out of it borrows plane 1's GC frontier — the one
// plane 1's own collection is copying into — while a host reader loops
// over the moving pages. A relocation that waits (for its source read)
// between taking a frontier page and submitting its program lets the
// other collector program the next page first, which NAND refuses
// ("pages must be programmed in order within a block"), and sends the
// reader to a committed target that is still erased.
func TestRelocateAcrossPlanesKeepsProgramOrder(t *testing.T) {
	const ppb = 8
	dev := flash.New(flash.Config{
		Geometry: nand.Geometry{
			Channels: 1, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 2,
			BlocksPerPlane: 12, PagesPerBlock: ppb, PageSize: 256, OOBSize: 16,
		},
		Cell: nand.SLC,
		Nand: nand.Options{StoreData: true},
	})
	v, err := New(dev, Config{DisableWearLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	d := v.dies[0]

	// One full block per plane: host writes alternate planes.
	cw := &sim.ClockWaiter{}
	for lpn := int64(0); lpn < 2*ppb; lpn++ {
		if err := v.Write(ioreq.Plain(cw), lpn, fillPage(256, lpn, 1)); err != nil {
			t.Fatal(err)
		}
	}
	var victims [2]int
	for plane := range victims {
		victims[plane] = d.hot[plane].Block
		if got := d.sp.PlaneOf(victims[plane]); got != plane || d.bt.Info[victims[plane]].Valid != ppb {
			t.Fatalf("plane %d: frontier block %d is in plane %d with %d valid pages",
				plane, victims[plane], got, d.bt.Info[victims[plane]].Valid)
		}
	}
	// Deplete plane 0: every free block taken, both frontiers full.
	for d.bt.FreeCount(0) > 0 {
		b, _ := d.bt.AllocFree(0, kindHot)
		d.bt.MarkFull(b)
	}
	if d.roomInPlane(0) || !d.roomInPlane(1) {
		t.Fatalf("room in plane 0 = %v, plane 1 = %v; want false, true", d.roomInPlane(0), d.roomInPlane(1))
	}
	dev.ResetTime()

	k := sim.New()
	var errs []error
	collecting := 2
	for plane := range victims {
		plane := plane
		k.Go(fmt.Sprintf("gc-plane%d", plane), func(p *sim.Proc) {
			d.gcActive[plane] = true
			if err := d.collectBlock(sim.ProcWaiter{P: p}, victims[plane], plane); err != nil {
				errs = append(errs, fmt.Errorf("collect plane %d: %w", plane, err))
			}
			d.gcActive[plane] = false
			collecting--
		})
	}
	reads := 0
	k.Go("reader", func(p *sim.Proc) {
		buf := make([]byte, 256)
		for lpn := int64(0); collecting > 0; lpn = (lpn + 1) % (2 * ppb) {
			if err := v.Read(ioreq.Plain(sim.ProcWaiter{P: p}), lpn, buf); err != nil {
				errs = append(errs, fmt.Errorf("read lpn %d at %v: %w", lpn, p.Now(), err))
				return
			}
			if !bytes.Equal(buf, fillPage(256, lpn, 1)) {
				errs = append(errs, fmt.Errorf("read lpn %d at %v: not the written image", lpn, p.Now()))
				return
			}
			reads++
		}
	})
	k.Run()
	k.Shutdown()

	for _, err := range errs {
		t.Error(err)
	}
	if reads < 2*ppb {
		t.Errorf("the reader got through %d reads while both planes were collected, want at least %d", reads, 2*ppb)
	}
	st := v.Stats()
	if st.GCCopybacks != ppb || st.GCReads != ppb || st.GCWrites != ppb || st.Erases != 2 {
		t.Errorf("copybacks/reads/programs/erases = %d/%d/%d/%d, want %d/%d/%d/2 (plane 1 copies back, plane 0 moves over the bus)",
			st.GCCopybacks, st.GCReads, st.GCWrites, st.Erases, ppb, ppb, ppb)
	}
	if err := v.checkAccounting(); err != nil {
		t.Error(err)
	}
	// The table agrees with what is on flash, and no page is mapped twice.
	buf := make([]byte, 256)
	seen := map[nand.PPN]int64{}
	for lpn := int64(0); lpn < 2*ppb; lpn++ {
		ppn := d.l2p[lpn]
		if prev, dup := seen[ppn]; dup {
			t.Errorf("ppn %d mapped by lpn %d and lpn %d", ppn, prev, lpn)
		}
		seen[ppn] = lpn
		oob, err := dev.Array().ReadPage(ppn, buf)
		if err != nil {
			t.Errorf("lpn %d -> ppn %d: %v", lpn, ppn, err)
			continue
		}
		if int64(oob.LPN) != lpn || !bytes.Equal(buf, fillPage(256, lpn, 1)) {
			t.Errorf("lpn %d -> ppn %d holds lpn %d's page", lpn, ppn, oob.LPN)
		}
	}
}

// TestFullFrontierLetsGoOfItsBlock: a full frontier whose refill finds
// the plane's pool empty must not keep naming its old block. Once GC has
// collected that block and recycled it into another frontier, the next
// refill attempt would mark the recycled block full — Used, so a GC
// victim while it is still being filled, and its erase would land under
// the pages still to be programmed.
func TestFullFrontierLetsGoOfItsBlock(t *testing.T) {
	v, _ := newTestVolume(t, Config{DisableWearLevel: true})
	d := v.dies[0]
	ppb := d.sp.PagesPerBlock()
	var blocks []int
	for d.bt.FreeCount(0) > 0 {
		b, _ := d.bt.AllocFree(0, kindHot)
		blocks = append(blocks, b)
	}
	old := blocks[0]
	fr := ftl.Frontier{Block: old, Next: ppb}
	if _, err := d.allocPage(0, &fr, kindGC); !errors.Is(err, ftl.ErrGCStuck) || fr.Block != -1 {
		t.Fatalf("refill from an empty pool: %v, frontier %+v; want ErrGCStuck and the frontier unset", err, fr)
	}
	// GC collects the old block and it comes back as another frontier.
	d.bt.Release(old)
	if b, _ := d.bt.AllocFree(0, kindHot); b != old {
		t.Fatalf("the pool handed out %d, want the recycled %d", b, old)
	}
	if _, err := d.allocPage(0, &fr, kindGC); !errors.Is(err, ftl.ErrGCStuck) {
		t.Fatalf("second refill: %v, want ErrGCStuck", err)
	}
	if st := d.bt.Info[old].State; st != ftl.BlockFrontier {
		t.Errorf("the recycled block is in state %v, want still a frontier", st)
	}
}
