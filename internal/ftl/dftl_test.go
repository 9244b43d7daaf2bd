package ftl_test

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"noftl/internal/ftl"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/sim"
)

// DFTL is built in package noftl (the page-mapped die manager plus a
// mapping cache); its FTL-level tests stay here with the other
// comparison FTLs', in the external test package like pagemap_ref_test.go.

func newTestDFTL(t *testing.T, cmtEntries int) (*noftl.DFTL, *sim.ClockWaiter) {
	t.Helper()
	dev := testDevice(nand.Options{})
	f, err := noftl.NewDFTL(dev, ftl.DFTLConfig{CMTEntries: cmtEntries})
	if err != nil {
		t.Fatal(err)
	}
	return f, &sim.ClockWaiter{}
}

func TestDFTLRoundTrip(t *testing.T) {
	f, w := newTestDFTL(t, 0)
	data := fillPage(256, 3, 9)
	if err := f.Write(w, 3, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if err := f.Read(w, 3, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(data) {
		t.Error("round trip corrupted data")
	}
}

func TestDFTLUnwrittenReadsZeroWithoutMapIO(t *testing.T) {
	f, w := newTestDFTL(t, 0)
	buf := fillPage(256, 1, 1)
	if err := f.Read(w, 100, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten page not zero")
		}
	}
	if st := f.Stats(); st.MapReads != 0 {
		t.Errorf("MapReads = %d for a page with no translation page", st.MapReads)
	}
}

func TestDFTLMissesCauseMapReads(t *testing.T) {
	// Tiny CMT (8 entries/die minimum) with a working set far larger
	// forces evictions and translation-page traffic.
	f, w := newTestDFTL(t, 16)
	n := f.LogicalPages()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < int(n)*2; i++ {
		lpn := rng.Int63n(n)
		if err := f.Write(w, lpn, fillPage(256, lpn, i)); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.MapWrites == 0 {
		t.Error("expected dirty CMT evictions to write translation pages")
	}
	if st.MapReads == 0 {
		t.Error("expected CMT misses to read translation pages")
	}
}

func TestDFTLLargeCMTBeatsSmallCMT(t *testing.T) {
	run := func(entries int) int64 {
		dev := testDevice(nand.Options{})
		f, err := noftl.NewDFTL(dev, ftl.DFTLConfig{CMTEntries: entries})
		if err != nil {
			t.Fatal(err)
		}
		w := &sim.ClockWaiter{}
		n := f.LogicalPages()
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < int(n)*3; i++ {
			lpn := rng.Int63n(n)
			if err := f.Write(w, lpn, fillPage(256, lpn, i)); err != nil {
				t.Fatal(err)
			}
		}
		return f.Stats().MapReads + f.Stats().MapWrites
	}
	small := run(16)
	large := run(1 << 20) // effectively the whole table cached
	if large >= small {
		t.Errorf("map I/O should shrink with CMT size: small=%d large=%d", small, large)
	}
	if large != 0 {
		// With everything cached, the only map I/O is first-touch misses
		// and GC patching; it must be far below the thrashing case.
		if large*4 > small {
			t.Errorf("large CMT map I/O %d not << small %d", large, small)
		}
	}
}

func TestDFTLGCPreservesDataAndPatchesMappings(t *testing.T) {
	f, w := newTestDFTL(t, 64)
	n := f.LogicalPages()
	version := make(map[int64]int)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < int(n)*5; i++ {
		lpn := rng.Int63n(n)
		version[lpn] = i
		if err := f.Write(w, lpn, fillPage(256, lpn, i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	st := f.Stats()
	if st.Erases == 0 || st.GCCopybacks == 0 {
		t.Fatalf("expected GC activity: %+v", st)
	}
	buf := make([]byte, 256)
	for lpn, v := range version {
		if err := f.Read(w, lpn, buf); err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		if got := binary.LittleEndian.Uint64(buf[8:]); got != uint64(v) {
			t.Fatalf("lpn %d: version %d, want %d", lpn, got, v)
		}
	}
}

// Property: DFTL agrees with a model map under arbitrary write/trim
// sequences, regardless of CMT pressure.
func TestDFTLReadYourWritesProperty(t *testing.T) {
	type op struct {
		LPN  uint16
		Kind uint8
	}
	f := func(ops []op, seed int64) bool {
		dev := testDevice(nand.Options{Seed: seed})
		d, err := noftl.NewDFTL(dev, ftl.DFTLConfig{CMTEntries: 32})
		if err != nil {
			return false
		}
		w := &sim.ClockWaiter{}
		model := map[int64]int{}
		n := d.LogicalPages()
		for i, o := range ops {
			lpn := int64(o.LPN) % n
			if o.Kind%3 == 2 {
				if err := d.Trim(w, lpn); err != nil {
					return false
				}
				delete(model, lpn)
				continue
			}
			model[lpn] = i + 1
			if err := d.Write(w, lpn, fillPage(256, lpn, i+1)); err != nil {
				return false
			}
		}
		buf := make([]byte, 256)
		for lpn := int64(0); lpn < n; lpn++ {
			if err := d.Read(w, lpn, buf); err != nil {
				return false
			}
			if binary.LittleEndian.Uint64(buf[8:]) != uint64(model[lpn]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
