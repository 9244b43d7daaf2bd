package noftl

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/nand"
	"noftl/internal/sim"
)

// pageFTLTestDevice returns a small 2-die, 2-plane device storing data.
func pageFTLTestDevice(opts nand.Options) *flash.Device {
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

func TestPageFTLBasicRoundTrip(t *testing.T) {
	dev := pageFTLTestDevice(nand.Options{})
	f, err := NewPageFTL(dev, ftl.PageFTLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w := &sim.ClockWaiter{}
	data := fillPage(256, 7, 1)
	if err := f.Write(w, 7, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if err := f.Read(w, 7, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(data) {
		t.Error("read returned wrong data")
	}
}

func TestPageFTLUnwrittenReadsZero(t *testing.T) {
	dev := pageFTLTestDevice(nand.Options{})
	f, _ := NewPageFTL(dev, ftl.PageFTLConfig{})
	w := &sim.ClockWaiter{}
	buf := fillPage(256, 1, 1) // pre-dirty the buffer
	if err := f.Read(w, 3, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten page did not read as zeros")
		}
	}
	if w.Now() != 0 {
		t.Error("unwritten read consumed simulated time")
	}
}

func TestPageFTLOutOfRange(t *testing.T) {
	dev := pageFTLTestDevice(nand.Options{})
	f, _ := NewPageFTL(dev, ftl.PageFTLConfig{})
	w := &sim.ClockWaiter{}
	if err := f.Read(w, f.LogicalPages(), nil); !errors.Is(err, ftl.ErrOutOfRange) {
		t.Errorf("read: %v, want ErrOutOfRange", err)
	}
	if err := f.Write(w, -1, nil); !errors.Is(err, ftl.ErrOutOfRange) {
		t.Errorf("write: %v, want ErrOutOfRange", err)
	}
	if err := f.Trim(w, f.LogicalPages()+5); !errors.Is(err, ftl.ErrOutOfRange) {
		t.Errorf("trim: %v, want ErrOutOfRange", err)
	}
}

func TestPageFTLCapacityReservesOverProvision(t *testing.T) {
	dev := pageFTLTestDevice(nand.Options{})
	f, _ := NewPageFTL(dev, ftl.PageFTLConfig{OverProvision: 0.25})
	geo := dev.Geometry()
	if f.LogicalPages() >= geo.TotalPages() {
		t.Error("no capacity reserved")
	}
	if f.LogicalPages() > int64(float64(geo.TotalPages())*0.75)+1 {
		t.Errorf("LogicalPages = %d exceeds 75%% of %d", f.LogicalPages(), geo.TotalPages())
	}
}

// TestPageFTLGCRelocatesAndPreservesData overwrites far more data than a
// plane holds, forcing many GC cycles, then verifies every logical page.
func TestPageFTLGCRelocatesAndPreservesData(t *testing.T) {
	dev := pageFTLTestDevice(nand.Options{})
	f, err := NewPageFTL(dev, ftl.PageFTLConfig{OverProvision: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	w := &sim.ClockWaiter{}
	n := f.LogicalPages()
	version := make(map[int64]int)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < int(n)*6; i++ {
		lpn := rng.Int63n(n)
		version[lpn]++
		if err := f.Write(w, lpn, fillPage(256, lpn, version[lpn])); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	st := f.Stats()
	if st.GCCopybacks == 0 || st.Erases == 0 {
		t.Errorf("expected GC activity, got %+v", st)
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

// Property: after an arbitrary write/trim sequence the FTL agrees with a
// model map.
func TestPageFTLReadYourWritesProperty(t *testing.T) {
	type op struct {
		LPN  uint16
		Kind uint8 // 0,1 write; 2 trim
	}
	f := func(ops []op, seed int64) bool {
		dev := pageFTLTestDevice(nand.Options{Seed: seed})
		pm, err := NewPageFTL(dev, ftl.PageFTLConfig{OverProvision: 0.2})
		if err != nil {
			return false
		}
		w := &sim.ClockWaiter{}
		model := map[int64]int{}
		n := pm.LogicalPages()
		for i, o := range ops {
			lpn := int64(o.LPN) % n
			if o.Kind == 2 {
				if err := pm.Trim(w, lpn); err != nil {
					return false
				}
				delete(model, lpn)
				continue
			}
			model[lpn] = i + 1
			if err := pm.Write(w, lpn, fillPage(256, lpn, i+1)); err != nil {
				return false
			}
		}
		buf := make([]byte, 256)
		for lpn := int64(0); lpn < n; lpn++ {
			if err := pm.Read(w, lpn, buf); err != nil {
				return false
			}
			want := uint64(model[lpn]) // 0 for trimmed/unwritten
			if binary.LittleEndian.Uint64(buf[8:]) != want {
				return false
			}
			if want != 0 && binary.LittleEndian.Uint64(buf) != uint64(lpn) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPageFTLTrimReducesGCWork(t *testing.T) {
	run := func(trim bool) int64 {
		dev := pageFTLTestDevice(nand.Options{})
		f, _ := NewPageFTL(dev, ftl.PageFTLConfig{OverProvision: 0.15})
		w := &sim.ClockWaiter{}
		n := f.LogicalPages()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < int(n)*4; i++ {
			lpn := rng.Int63n(n)
			if err := f.Write(w, lpn, fillPage(256, lpn, i)); err != nil {
				panic(err)
			}
			if trim && i%2 == 1 {
				// The host declares half its writes dead soon after.
				if err := f.Trim(w, lpn); err != nil {
					panic(err)
				}
			}
		}
		return f.Stats().GCCopybacks
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Errorf("trim did not reduce copybacks: with=%d without=%d", with, without)
	}
}

func TestPageFTLStripesAcrossDies(t *testing.T) {
	dev := pageFTLTestDevice(nand.Options{})
	f, _ := NewPageFTL(dev, ftl.PageFTLConfig{})
	w := &sim.ClockWaiter{}
	for lpn := int64(0); lpn < 8; lpn++ {
		if err := f.Write(w, lpn, fillPage(256, lpn, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st := dev.Stats()
	if st.DieBusy[0] == 0 || st.DieBusy[1] == 0 {
		t.Errorf("writes did not stripe over dies: %v", st.DieBusy)
	}
}

func TestPageFTLGCCopybacksStayInPlane(t *testing.T) {
	dev := pageFTLTestDevice(nand.Options{})
	f, _ := NewPageFTL(dev, ftl.PageFTLConfig{OverProvision: 0.2})
	w := &sim.ClockWaiter{}
	n := f.LogicalPages()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < int(n)*5; i++ {
		lpn := rng.Int63n(n)
		if err := f.Write(w, lpn, fillPage(256, lpn, i)); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.GCCopybacks == 0 {
		t.Fatal("no GC happened")
	}
	// Same-plane copyback is enforced by the NAND array; reaching here
	// without ErrCrossPlane proves the allocator kept GC in-plane. Also
	// no relocation should have needed the bus:
	if st.GCReads != 0 || st.GCWrites != 0 {
		t.Errorf("GC used the bus: reads=%d writes=%d", st.GCReads, st.GCWrites)
	}
	dst := dev.Stats()
	if dst.Copybacks != st.GCCopybacks {
		t.Errorf("device copybacks %d != ftl copybacks %d", dst.Copybacks, st.GCCopybacks)
	}
}

func TestPageFTLSurvivesGrownBadBlocks(t *testing.T) {
	// Fail rate chosen so grown-bad capacity loss stays well inside the
	// over-provisioned margin; losing more than the margin is unrecoverable
	// for any FTL and correctly surfaces as ErrGCStuck.
	dev := pageFTLTestDevice(nand.Options{ProgramFailProb: 0.0005, Seed: 11})
	f, err := NewPageFTL(dev, ftl.PageFTLConfig{OverProvision: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	w := &sim.ClockWaiter{}
	n := f.LogicalPages()
	version := make(map[int64]int)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < int(n)*4; i++ {
		lpn := rng.Int63n(n)
		version[lpn] = i
		if err := f.Write(w, lpn, fillPage(256, lpn, i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if dev.Array().Counters().GrownBad == 0 {
		t.Skip("seed produced no grown bad blocks")
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

// TestPageFTLWearLeveling: the page-mapped volume configuration (hints
// off, two frontiers) wear-levels like the full volume when asked to;
// the comparison FTL itself runs with it off.
func TestPageFTLWearLeveling(t *testing.T) {
	dev := pageFTLTestDevice(nand.Options{})
	v, err := newVolume(dev, Config{
		OverProvision: 0.2, WearDelta: 4, Policy: ftl.WearAwarePolicy, DisableHints: true,
	}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &PageFTL{v: v}
	w := &sim.ClockWaiter{}
	n := f.LogicalPages()
	// Write everything once (cold data), then hammer a small hot set.
	for lpn := int64(0); lpn < n; lpn++ {
		if err := f.Write(w, lpn, fillPage(256, lpn, 0)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < int(n)*10; i++ {
		lpn := rng.Int63n(n / 8) // hot eighth
		if err := f.Write(w, lpn, fillPage(256, lpn, i)); err != nil {
			t.Fatal(err)
		}
	}
	if f.Stats().WearMoves == 0 {
		t.Error("static wear leveling never triggered")
	}
	ws := dev.Array().Wear()
	if ws.Max-ws.Min > 40 {
		t.Errorf("wear spread %d..%d too wide despite WL", ws.Min, ws.Max)
	}
}

// TestPageFTLCapacityPinned pins the exported capacity on the geometries
// the paper experiments build the FTL on, at the over-provisioning they
// pass. The FTL opens two frontiers per plane where the full volume
// opens five; reserving for five would bind before over-provisioning on
// the headline drive and shrink every pagemap row's working set.
func TestPageFTLCapacityPinned(t *testing.T) {
	// bench.fig3Device(1<<15, 4096): the A1/A4 ablation device.
	sweep := flash.Config{Geometry: nand.Geometry{
		Channels: 4, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
		BlocksPerPlane: 66, PagesPerBlock: 64, PageSize: 4096, OOBSize: 128,
	}, Cell: nand.SLC}
	for _, c := range []struct {
		name string
		dev  flash.Config
		op   float64 // 0: the FTL's default
		want int64
	}{
		{"headline 8 dies/192 MB", flash.EmulatorConfig(8, 192, nand.SLC), 0, 44232},
		{"CI headline 8 dies/96 MB", flash.EmulatorConfig(8, 96, nand.SLC), 0, 20480},
		{"validate 1 die/32 MB", flash.EmulatorConfig(1, 32, nand.SLC), 0, 7372},
		{"validate 2 dies/32 MB", flash.EmulatorConfig(2, 32, nand.SLC), 0, 7168},
		{"validate 4 dies/32 MB", flash.EmulatorConfig(4, 32, nand.SLC), 0, 6144},
		{"validate 8 dies/32 MB", flash.EmulatorConfig(8, 32, nand.SLC), 0, 4096},
		{"ablation op 0.07", sweep, 0.07, 31424},
		{"ablation op 0.12", sweep, 0.12, 29736},
		{"ablation op 0.20", sweep, 0.20, 27032},
		{"ablation op 0.28", sweep, 0.28, 24328},
	} {
		f, err := NewPageFTL(flash.New(c.dev), ftl.PageFTLConfig{OverProvision: c.op})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := f.LogicalPages(); got != c.want {
			t.Errorf("%s: LogicalPages = %d, want %d", c.name, got, c.want)
		}
	}
}
