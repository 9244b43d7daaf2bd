package noftl

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// The FTL-level DFTL tests (round trip, map I/O, CMT size, GC, the
// read-your-writes property) are in internal/ftl with the other
// comparison FTLs'; here are the ones that look inside.

func TestCMTCacheLRUOrder(t *testing.T) {
	c := newCMTCache(2)
	c.insert(1, false)
	c.insert(2, false)
	if !c.touch(1) { // 1 becomes MRU; LRU is 2
		t.Fatal("touch(1) missed")
	}
	if n := c.lru(); n.lpn != 2 {
		t.Fatalf("lru = %v, want 2", n)
	}
	c.remove(2)
	c.insert(3, true)
	if c.touch(2) {
		t.Error("removed entry still cached")
	}
	if n := c.lru(); n.lpn != 1 {
		t.Errorf("lru = %d, want 1", n.lpn)
	}
}

func TestCMTCleanPage(t *testing.T) {
	c := newCMTCache(8)
	for i := int64(0); i < 6; i++ {
		c.insert(i, true)
	}
	c.cleanPage(0, 4) // cleans lpn 0..3
	for e := c.order.Front(); e != nil; e = e.Next() {
		n := e.Value.(*cmtEntry)
		wantDirty := n.lpn >= 4
		if n.dirty != wantDirty {
			t.Errorf("lpn %d dirty=%v, want %v", n.lpn, n.dirty, wantDirty)
		}
	}
}

// TestDFTLIsPageFTLWhenTheTableFits pins "the two rows differ in the
// mapping cache and in nothing else": with the whole table cached no
// translation page is ever read or written, and the same command stream
// must then cost DFTL exactly what it costs the page-mapping FTL — every
// counter and the clock. Both run at their default over-provisioning.
func TestDFTLIsPageFTLWhenTheTableFits(t *testing.T) {
	df, err := NewDFTL(pageFTLTestDevice(nand.Options{}), ftl.DFTLConfig{CMTEntries: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := NewPageFTL(pageFTLTestDevice(nand.Options{}), ftl.PageFTLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n := df.LogicalPages()
	if n >= pm.LogicalPages() {
		t.Fatalf("DFTL exports %d pages, PageFTL %d: no room for translation pages", n, pm.LogicalPages())
	}
	run := func(f ftl.FTL) (ftl.Stats, sim.Time) {
		w := &sim.ClockWaiter{}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < int(n)*4; i++ {
			lpn := rng.Int63n(n)
			if err := f.Write(w, lpn, fillPage(256, lpn, i)); err != nil {
				t.Fatalf("%s write %d: %v", f.Name(), i, err)
			}
			if i%3 == 0 {
				if err := f.Read(w, rng.Int63n(n), nil); err != nil {
					t.Fatalf("%s read %d: %v", f.Name(), i, err)
				}
			}
			if i%17 == 0 {
				if err := f.Trim(w, rng.Int63n(n)); err != nil {
					t.Fatalf("%s trim %d: %v", f.Name(), i, err)
				}
			}
		}
		return f.Stats(), w.Now()
	}
	ds, dt := run(df)
	ps, pt := run(pm)
	if ds != ps {
		t.Errorf("stats differ:\n dftl    %+v\n pagemap %+v", ds, ps)
	}
	if dt != pt {
		t.Errorf("clock differs: dftl %v, pagemap %v", dt, pt)
	}
	if ds.Erases == 0 || ds.GCCopybacks == 0 {
		t.Errorf("the mix never collected garbage: %+v", ds)
	}
}

// TestDFTLEvictsAfterGCNotInsideIt overwrites the volume three times
// through a 16-entry CMT. The relocation hook only fetches and dirties,
// so a collection never waits on a write-back that needs the space it is
// making (no ErrGCStuck) and never re-enters a plane being collected;
// what it added is evicted by the host command that triggered it, so
// the CMT is back at its capacity when that command returns.
func TestDFTLEvictsAfterGCNotInsideIt(t *testing.T) {
	f, err := NewDFTL(pageFTLTestDevice(nand.Options{}), ftl.DFTLConfig{CMTEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Wrap the hook: whenever the die manager reports a move, that plane
	// is mid-collection, and no other collection of it may be running
	// (gcActive is a flag, not a count — a re-entrant gcOnce would clear
	// it under the outer one, which this would then see).
	overflow := 0
	for _, d := range f.v.dies {
		d := d
		d.moved = func(w sim.Waiter, lpn int64) error {
			active := 0
			for _, a := range d.gcActive {
				if a {
					active++
				}
			}
			if active != 1 {
				t.Errorf("die %d: %d planes collecting during a relocation, want 1", d.sp.Die, active)
			}
			mapWrites := f.mapWrites
			err := f.patch(w, lpn)
			if f.mapWrites != mapWrites {
				t.Errorf("relocation of lpn %d wrote a translation page from inside GC", lpn)
			}
			if n := len(f.cmt.m) - f.cmt.cap; n > overflow {
				overflow = n
			}
			return err
		}
	}
	w := &sim.ClockWaiter{}
	n := f.LogicalPages()
	rng := rand.New(rand.NewSource(3))
	version := make(map[int64]int)
	for i := 0; i < int(n)*3; i++ {
		lpn := rng.Int63n(n)
		version[lpn] = i
		if err := f.Write(w, lpn, fillPage(256, lpn, i)); err != nil {
			if errors.Is(err, ftl.ErrGCStuck) {
				t.Fatalf("write %d: GC stuck behind the mapping cache: %v", i, err)
			}
			t.Fatalf("write %d: %v", i, err)
		}
		if i%5 == 0 {
			if err := f.Read(w, rng.Int63n(n), nil); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
		if len(f.cmt.m) > f.cmt.cap {
			t.Fatalf("after command %d the CMT holds %d entries, capacity %d", i, len(f.cmt.m), f.cmt.cap)
		}
	}
	st := f.Stats()
	if st.MapWrites == 0 || st.MapReads == 0 {
		t.Errorf("a 16-entry CMT caused no translation traffic: %+v", st)
	}
	if st.Erases == 0 || st.GCCopybacks == 0 {
		t.Errorf("three overwrites collected no garbage: %+v", st)
	}
	if overflow == 0 {
		t.Error("no collection ever pushed the CMT past its capacity: the deferred eviction went untested")
	}
	buf := make([]byte, 256)
	for lpn, ver := range version {
		if err := f.Read(w, lpn, buf); err != nil {
			t.Fatalf("read back %d: %v", lpn, err)
		}
		if got := binary.LittleEndian.Uint64(buf[8:]); got != uint64(ver) {
			t.Fatalf("lpn %d: version %d, want %d", lpn, got, ver)
		}
	}
	if err := f.v.checkAccounting(); err != nil {
		t.Fatal(err)
	}
}

// TestDFTLCapacityPinned pins the exported capacity on the devices the
// paper experiments build DFTL on: the page-mapping FTL's capacity at the
// same over-provisioning, less the top 1/(perTP+1) of it for translation
// pages (perTP = 512 entries in a 4 KiB page).
func TestDFTLCapacityPinned(t *testing.T) {
	// bench.fig3Device(span*10/7, 4096) for the 281-page span of A2's
	// seed-42 TPC-B trace.
	a2 := flash.Config{Geometry: nand.Geometry{
		Channels: 1, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
		BlocksPerPlane: 15, PagesPerBlock: 64, PageSize: 4096, OOBSize: 128,
	}, Cell: nand.SLC}
	for _, c := range []struct {
		name          string
		dev           flash.Config
		want, pagemap int64
	}{
		{"headline 8 dies/192 MB", flash.EmulatorConfig(8, 192, nand.SLC), 44145, 44232},
		{"CI headline 8 dies/96 MB", flash.EmulatorConfig(8, 96, nand.SLC), 20440, 20480},
		{"A2 1 die/15 blocks", a2, 702, 704},
	} {
		f, err := NewDFTL(flash.New(c.dev), ftl.DFTLConfig{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := f.LogicalPages(); got != c.want {
			t.Errorf("%s: LogicalPages = %d, want %d", c.name, got, c.want)
		}
		if got := f.v.LogicalPages(); got != c.pagemap {
			t.Errorf("%s: the volume under DFTL has %d pages, the page-mapping FTL's has %d", c.name, got, c.pagemap)
		}
		if tps := f.v.LogicalPages() - f.pages; tps*f.perTP < f.pages {
			t.Errorf("%s: %d translation pages of %d entries cannot map %d pages", c.name, tps, f.perTP, f.pages)
		}
	}
}
