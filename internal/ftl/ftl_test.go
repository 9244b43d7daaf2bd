package ftl

import (
	"encoding/binary"
	"strings"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/nand"
)

// testDevice returns a small 2-die, 2-plane device storing data.
func testDevice(opts nand.Options) *flash.Device {
	opts.StoreData = true
	return flash.New(flash.Config{
		Geometry: nand.Geometry{
			Channels:        2,
			ChipsPerChannel: 1,
			DiesPerChip:     1,
			PlanesPerDie:    2,
			BlocksPerPlane:  24,
			PagesPerBlock:   16,
			PageSize:        256,
			OOBSize:         16,
		},
		Cell: nand.SLC,
		Nand: opts,
	})
}

func fillPage(size int, lpn int64, version int) []byte {
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b, uint64(lpn))
	binary.LittleEndian.PutUint64(b[8:], uint64(version))
	return b
}

func TestStatsAddAndWA(t *testing.T) {
	a := Stats{HostWrites: 100, GCCopybacks: 40, GCWrites: 10, MapWrites: 5, Erases: 3}
	b := Stats{HostWrites: 50, HostReads: 7, Trims: 2, SwitchMerges: 1}
	sum := a.Add(b)
	if sum.HostWrites != 150 || sum.HostReads != 7 || sum.GCCopybacks != 40 ||
		sum.Trims != 2 || sum.SwitchMerges != 1 || sum.Erases != 3 {
		t.Errorf("Add = %+v", sum)
	}
	wantWA := float64(150+40+10+5) / 150
	if got := sum.WriteAmplification(); got != wantWA {
		t.Errorf("WA = %v, want %v", got, wantWA)
	}
	if (Stats{}).WriteAmplification() != 0 {
		t.Error("WA of empty stats should be 0")
	}
	if !strings.Contains(sum.String(), "WA=") {
		t.Error("String missing WA")
	}
}

func TestStripingMath(t *testing.T) {
	st := Striping{Dies: 4, PerDie: 100}
	if st.Total() != 400 {
		t.Fatal("Total")
	}
	for lpn := int64(0); lpn < 400; lpn += 37 {
		die := st.DieOf(lpn)
		dlpn := st.DieLPN(lpn)
		if dlpn*int64(st.Dies)+int64(die) != lpn {
			t.Fatalf("striping roundtrip failed for %d", lpn)
		}
	}
}

func TestStripingCheckRange(t *testing.T) {
	st := Striping{Dies: 2, PerDie: 10}
	if err := st.checkRange(19); err != nil {
		t.Errorf("in-range rejected: %v", err)
	}
	if err := st.checkRange(20); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := st.checkRange(-1); err == nil {
		t.Error("negative accepted")
	}
}

func TestDieSpaceMapping(t *testing.T) {
	dev := testDevice(nand.Options{})
	sp := NewDieSpace(dev, 1)
	for local := 0; local < sp.Blocks(); local++ {
		pbn := sp.PBN(local)
		if sp.Local(pbn) != local {
			t.Fatalf("local %d -> pbn %d -> %d", local, pbn, sp.Local(pbn))
		}
		if dev.Geometry().DieOfBlock(pbn) != 1 {
			t.Fatalf("block %d not on die 1", pbn)
		}
		for page := 0; page < sp.PagesPerBlock(); page += 5 {
			ppn := sp.PPN(local, page)
			l, pg := sp.LocalOfPPN(ppn)
			if l != local || pg != page {
				t.Fatalf("ppn roundtrip (%d,%d) -> (%d,%d)", local, page, l, pg)
			}
		}
	}
}

func TestBlockTableLifecycle(t *testing.T) {
	dev := testDevice(nand.Options{})
	bt := NewBlockTable(NewDieSpace(dev, 0))
	totalFree := func() int { return bt.FreeCount(0) + bt.FreeCount(1) }
	total := totalFree()
	if total != bt.Usable() {
		t.Fatalf("free %d != usable %d on fresh table", total, bt.Usable())
	}
	b, ok := bt.AllocFree(0, 3)
	if !ok {
		t.Fatal("alloc failed")
	}
	if bt.Info[b].State != BlockFrontier || bt.Info[b].Kind != 3 {
		t.Error("alloc state wrong")
	}
	bt.SetOwner(b, 0, 42)
	if bt.Info[b].Valid != 1 {
		t.Error("valid count")
	}
	bt.Invalidate(b, 0)
	bt.Invalidate(b, 0) // idempotent
	if bt.Info[b].Valid != 0 {
		t.Error("invalidate")
	}
	bt.MarkFull(b)
	if bt.Info[b].State != BlockUsed {
		t.Error("MarkFull")
	}
	bt.Release(b)
	if bt.Info[b].State != BlockFree || totalFree() != total {
		t.Error("Release")
	}
	bt.Retire(b)
	if bt.Usable() != total-1 {
		t.Error("Retire from free pool")
	}
	if _, ok := bt.TakeFree(0, b); ok {
		t.Error("TakeFree returned a retired block")
	}
}
