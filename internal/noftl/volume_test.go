package noftl

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"noftl/internal/ioreq"
	"testing"
	"testing/quick"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/nand"
	"noftl/internal/sched"
	"noftl/internal/sim"
)

func testDevice(opts nand.Options) *flash.Device {
	opts.StoreData = true
	return flash.New(flash.Config{
		Geometry: nand.Geometry{
			Channels:        2,
			ChipsPerChannel: 2,
			DiesPerChip:     1,
			PlanesPerDie:    2,
			BlocksPerPlane:  16,
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

func newTestVolume(t *testing.T, cfg Config) (*Volume, *sim.ClockWaiter) {
	t.Helper()
	v, err := New(testDevice(nand.Options{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v, &sim.ClockWaiter{}
}

func TestVolumeRoundTrip(t *testing.T) {
	v, w := newTestVolume(t, Config{})
	data := fillPage(256, 11, 3)
	if err := v.Write(ioreq.Plain(w), 11, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if err := v.Read(ioreq.Plain(w), 11, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(data) {
		t.Error("round trip corrupted data")
	}
}

func TestVolumeRegions(t *testing.T) {
	v, _ := newTestVolume(t, Config{})
	if v.Regions() != 4 {
		t.Fatalf("Regions = %d, want 4", v.Regions())
	}
	// Die-wise striping: consecutive pages rotate through regions.
	for lpn := int64(0); lpn < 16; lpn++ {
		if got := v.RegionOf(lpn); got != int(lpn%4) {
			t.Errorf("RegionOf(%d) = %d, want %d", lpn, got, lpn%4)
		}
	}
}

func TestVolumeOutOfRange(t *testing.T) {
	v, w := newTestVolume(t, Config{})
	if err := v.Read(ioreq.Plain(w), v.LogicalPages(), nil); !errors.Is(err, ftl.ErrOutOfRange) {
		t.Errorf("read: %v", err)
	}
	if err := v.Write(ioreq.Plain(w), -1, nil); !errors.Is(err, ftl.ErrOutOfRange) {
		t.Errorf("write: %v", err)
	}
	if err := v.Invalidate(v.LogicalPages()); !errors.Is(err, ftl.ErrOutOfRange) {
		t.Errorf("invalidate: %v", err)
	}
}

func TestVolumeIdentify(t *testing.T) {
	v, _ := newTestVolume(t, Config{})
	id := v.Identify()
	if id.Geometry.Dies() != 4 || id.Cell != nand.SLC {
		t.Errorf("Identify = %+v", id)
	}
}

// Property: the volume agrees with a model map under arbitrary
// write/invalidate sequences.
func TestVolumeReadYourWritesProperty(t *testing.T) {
	type op struct {
		LPN  uint16
		Kind uint8
	}
	f := func(ops []op, seed int64) bool {
		v, err := New(testDevice(nand.Options{Seed: seed}), Config{})
		if err != nil {
			return false
		}
		w := &sim.ClockWaiter{}
		model := map[int64]int{}
		n := v.LogicalPages()
		for i, o := range ops {
			lpn := int64(o.LPN) % n
			if o.Kind%3 == 2 {
				if v.Invalidate(lpn) != nil {
					return false
				}
				delete(model, lpn)
				continue
			}
			model[lpn] = i + 1
			hint := HintDefault
			if o.Kind%3 == 1 {
				hint = HintCold
			}
			if v.WriteHint(ioreq.Plain(w), lpn, fillPage(256, lpn, i+1), hint) != nil {
				return false
			}
		}
		buf := make([]byte, 256)
		for lpn := int64(0); lpn < n; lpn++ {
			if v.Read(ioreq.Plain(w), lpn, buf) != nil {
				return false
			}
			if binary.LittleEndian.Uint64(buf[8:]) != uint64(model[lpn]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestVolumeInvalidateSkipsGCCopies(t *testing.T) {
	// The paper's core GC argument: when the DBMS declares dead pages,
	// GC copies far less. Same write stream, with and without
	// invalidation of obsolete pages.
	run := func(invalidate bool) ftl.Stats {
		v, err := New(testDevice(nand.Options{}), Config{})
		if err != nil {
			t.Fatal(err)
		}
		w := &sim.ClockWaiter{}
		n := v.LogicalPages()
		rng := rand.New(rand.NewSource(7))
		live := n / 2
		for i := 0; i < int(n)*4; i++ {
			// Half the space holds a churning working set; the other half
			// receives short-lived pages (think: temp results, old record
			// versions) that die right after being written.
			if rng.Float64() < 0.5 {
				lpn := rng.Int63n(live)
				if err := v.Write(ioreq.Plain(w), lpn, fillPage(256, lpn, i)); err != nil {
					t.Fatal(err)
				}
			} else {
				lpn := live + rng.Int63n(n-live)
				if err := v.Write(ioreq.Plain(w), lpn, fillPage(256, lpn, i)); err != nil {
					t.Fatal(err)
				}
				if invalidate {
					if err := v.Invalidate(lpn); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return v.Stats()
	}
	with := run(true)
	without := run(false)
	if with.GCCopybacks*2 > without.GCCopybacks {
		t.Errorf("invalidation should cut GC copies at least in half: with=%d without=%d",
			with.GCCopybacks, without.GCCopybacks)
	}
	if with.Erases >= without.Erases {
		t.Errorf("invalidation should reduce erases: with=%d without=%d", with.Erases, without.Erases)
	}
}

func TestVolumeBackgroundGCStep(t *testing.T) {
	v, w := newTestVolume(t, Config{})
	n := v.LogicalPages()
	rng := rand.New(rand.NewSource(3))
	// Fill until at least one region wants cleaning.
	for i := 0; i < int(n)*2; i++ {
		lpn := rng.Int63n(n)
		if err := v.Write(ioreq.Plain(w), lpn, fillPage(256, lpn, i)); err != nil {
			t.Fatal(err)
		}
	}
	needed := false
	for r := 0; r < v.Regions(); r++ {
		for v.NeedsGC(r) {
			needed = true
			did, err := v.GCStep(ioreq.Plain(w), r)
			if err != nil {
				t.Fatal(err)
			}
			if !did {
				break // nothing collectable right now
			}
		}
	}
	if !needed {
		t.Skip("workload never hit the background watermark")
	}
	if v.Stats().Erases == 0 {
		t.Error("background GC did no erases")
	}
	// Data still intact.
	buf := make([]byte, 256)
	for lpn := int64(0); lpn < n; lpn += 11 {
		if err := v.Read(ioreq.Plain(w), lpn, buf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVolumeHotColdSeparationReducesCopies(t *testing.T) {
	run := func(disable bool) ftl.Stats {
		v, err := New(testDevice(nand.Options{}), Config{DisableHints: disable})
		if err != nil {
			t.Fatal(err)
		}
		w := &sim.ClockWaiter{}
		n := v.LogicalPages()
		// Interleave a slowly cycling cold stream (bulk data, history)
		// with a hot churn over a small page set. Without separation each
		// block mixes both, so GC victims always drag cold pages along.
		rng := rand.New(rand.NewSource(5))
		coldNext := n / 2
		for i := 0; i < int(n)*4; i++ {
			if i%4 == 0 {
				lpn := coldNext
				coldNext++
				if coldNext == n {
					coldNext = n / 2
				}
				if err := v.WriteHint(ioreq.Plain(w), lpn, fillPage(256, lpn, i), HintCold); err != nil {
					t.Fatal(err)
				}
			} else {
				lpn := rng.Int63n(n / 8)
				if err := v.WriteHint(ioreq.Plain(w), lpn, fillPage(256, lpn, i), HintHot); err != nil {
					t.Fatal(err)
				}
			}
		}
		return v.Stats()
	}
	with := run(false)
	without := run(true)
	if with.GCCopybacks >= without.GCCopybacks {
		t.Errorf("hot/cold separation should reduce copies: with=%d without=%d",
			with.GCCopybacks, without.GCCopybacks)
	}
}

func TestVolumeSurvivesBadBlocks(t *testing.T) {
	dev := testDevice(nand.Options{ProgramFailProb: 0.0005, Seed: 9})
	v, err := New(dev, Config{OverProvision: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	w := &sim.ClockWaiter{}
	n := v.LogicalPages()
	version := map[int64]int{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < int(n)*4; i++ {
		lpn := rng.Int63n(n)
		version[lpn] = i
		if err := v.Write(ioreq.Plain(w), lpn, fillPage(256, lpn, i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if dev.Array().Counters().GrownBad == 0 {
		t.Skip("no grown bad blocks with this seed")
	}
	buf := make([]byte, 256)
	for lpn, ver := range version {
		if err := v.Read(ioreq.Plain(w), lpn, buf); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(buf[8:]); got != uint64(ver) {
			t.Fatalf("lpn %d: version %d, want %d", lpn, got, ver)
		}
	}
}

// TestVolumeWearLeveling overwrites a hot eighth of the volume ten times
// over: static wear leveling must move cold blocks and bound the spread
// whether the write path collects inline or the background GC workers
// do.
func TestVolumeWearLeveling(t *testing.T) {
	for _, tc := range []struct {
		name       string
		background bool
	}{
		{"inline-gc", false},
		{"gc-workers", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := testDevice(nand.Options{})
			v, err := New(dev, Config{WearDelta: 4, Policy: ftl.WearAwarePolicy, BackgroundGC: tc.background})
			if err != nil {
				t.Fatal(err)
			}
			cw := &sim.ClockWaiter{}
			n := v.LogicalPages()
			for lpn := int64(0); lpn < n; lpn++ {
				if err := v.Write(ioreq.Plain(cw), lpn, fillPage(256, lpn, 0)); err != nil {
					t.Fatal(err)
				}
			}
			overwrite := func(w sim.Waiter) error {
				rng := rand.New(rand.NewSource(4))
				for i := 0; i < int(n)*10; i++ {
					lpn := rng.Int63n(n / 8)
					if err := v.Write(ioreq.Plain(w), lpn, fillPage(256, lpn, i)); err != nil {
						return err
					}
				}
				return nil
			}
			if !tc.background {
				err = overwrite(cw)
			} else {
				dev.ResetTime()
				k := sim.New()
				mt := sched.StartMaintenance(k, v, sched.MaintConfig{OnError: func(e error) { err = e }})
				k.Go("writer", func(p *sim.Proc) {
					defer mt.Stop()
					if werr := overwrite(sim.ProcWaiter{P: p}); werr != nil {
						err = werr
					}
				})
				k.Run()
				k.Shutdown()
				if mt.GCSteps == 0 {
					t.Error("the GC workers never collected")
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if v.Stats().WearMoves == 0 {
				t.Error("wear leveling never triggered")
			}
			ws := dev.Array().Wear()
			if ws.Max-ws.Min > 40 {
				t.Errorf("wear spread %d..%d too wide", ws.Min, ws.Max)
			}
		})
	}
}

func TestRebuildRestoresMapping(t *testing.T) {
	dev := testDevice(nand.Options{})
	v, err := New(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := &sim.ClockWaiter{}
	n := v.LogicalPages()
	version := map[int64]int{}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < int(n)*3; i++ {
		lpn := rng.Int63n(n)
		version[lpn] = i
		if err := v.Write(ioreq.Plain(w), lpn, fillPage(256, lpn, i)); err != nil {
			t.Fatal(err)
		}
	}
	// "Restart": throw the volume away, rebuild from the same device.
	v2, err := Rebuild(dev, Config{}, ioreq.Plain(w))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	for lpn, ver := range version {
		if err := v2.Read(ioreq.Plain(w), lpn, buf); err != nil {
			t.Fatalf("read %d after rebuild: %v", lpn, err)
		}
		if got := binary.LittleEndian.Uint64(buf[8:]); got != uint64(ver) {
			t.Fatalf("lpn %d: version %d, want %d", lpn, got, ver)
		}
	}
	// The rebuilt volume must be fully operational (writes + GC).
	for i := 0; i < int(n)*2; i++ {
		lpn := rng.Int63n(n)
		if err := v2.Write(ioreq.Plain(w), lpn, fillPage(256, lpn, i)); err != nil {
			t.Fatalf("write after rebuild: %v", err)
		}
	}
}

func TestRebuildChargesScanReads(t *testing.T) {
	dev := testDevice(nand.Options{})
	v, err := New(dev, Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := &sim.ClockWaiter{}
	for lpn := int64(0); lpn < 64; lpn++ {
		if err := v.Write(ioreq.Plain(w), lpn, fillPage(256, lpn, 1)); err != nil {
			t.Fatal(err)
		}
	}
	before := dev.Stats().Reads
	if _, err := Rebuild(dev, Config{}, ioreq.Plain(w)); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().Reads-before < 64 {
		t.Error("rebuild scan did not charge page reads")
	}
}

// Property: the volume's block accounting stays consistent under
// arbitrary operation sequences: every mapped logical page has exactly
// one owned slot, and per-block valid counts equal the owned slots.
func TestVolumeAccountingInvariantProperty(t *testing.T) {
	type op struct {
		LPN  uint16
		Kind uint8
	}
	f := func(ops []op, seed int64) bool {
		v, err := New(testDevice(nand.Options{Seed: seed}), Config{})
		if err != nil {
			return false
		}
		w := &sim.ClockWaiter{}
		n := v.LogicalPages()
		for i, o := range ops {
			lpn := int64(o.LPN) % n
			switch o.Kind % 4 {
			case 0, 1:
				if v.Write(ioreq.Plain(w), lpn, fillPage(256, lpn, i)) != nil {
					return false
				}
			case 2:
				if v.Invalidate(lpn) != nil {
					return false
				}
			case 3:
				if _, err := v.GCStep(ioreq.Plain(w), v.RegionOf(lpn)); err != nil {
					return false
				}
			}
		}
		return v.checkAccounting() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
