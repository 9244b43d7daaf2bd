package ftl

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"noftl/internal/nand"
	"noftl/internal/sim"
)

func newTestFaster(t *testing.T, cfg FasterConfig) (*FasterFTL, *sim.ClockWaiter) {
	t.Helper()
	dev := testDevice(nand.Options{})
	f, err := NewFasterFTL(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, &sim.ClockWaiter{}
}

func TestFasterRoundTrip(t *testing.T) {
	f, w := newTestFaster(t, FasterConfig{SecondChance: true})
	data := fillPage(256, 5, 2)
	if err := f.Write(w, 5, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	if err := f.Read(w, 5, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(data) {
		t.Error("round trip corrupted data")
	}
}

func TestFasterUnwrittenReadsZero(t *testing.T) {
	f, w := newTestFaster(t, FasterConfig{})
	buf := fillPage(256, 9, 9)
	if err := f.Read(w, 42, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten page not zero")
		}
	}
}

func TestFasterSequentialLoadUsesSwitchMerges(t *testing.T) {
	f, w := newTestFaster(t, FasterConfig{SecondChance: true})
	n := f.LogicalPages()
	for lpn := int64(0); lpn < n; lpn++ {
		if err := f.Write(w, lpn, fillPage(256, lpn, 1)); err != nil {
			t.Fatalf("write %d: %v", lpn, err)
		}
	}
	st := f.Stats()
	if st.SwitchMerges == 0 {
		t.Error("sequential load produced no switch merges")
	}
	if st.FullMerges != 0 {
		t.Errorf("sequential load caused %d full merges", st.FullMerges)
	}
	// Switch merges are free: almost no relocation traffic.
	if st.GCCopybacks+st.GCWrites > st.HostWrites/10 {
		t.Errorf("sequential load relocated too much: %+v", st)
	}
	// Everything must read back.
	buf := make([]byte, 256)
	for lpn := int64(0); lpn < n; lpn += 7 {
		if err := f.Read(w, lpn, buf); err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint64(buf) != uint64(lpn) {
			t.Fatalf("lpn %d corrupted", lpn)
		}
	}
}

func TestFasterRandomUpdatesCauseFullMerges(t *testing.T) {
	f, w := newTestFaster(t, FasterConfig{SecondChance: true})
	n := f.LogicalPages()
	// Load sequentially, then update randomly.
	for lpn := int64(0); lpn < n; lpn++ {
		if err := f.Write(w, lpn, fillPage(256, lpn, 0)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < int(n)*2; i++ {
		lpn := rng.Int63n(n)
		if err := f.Write(w, lpn, fillPage(256, lpn, i)); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.FullMerges == 0 {
		t.Errorf("random updates produced no full merges: %+v", st)
	}
	if st.GCCopybacks+st.GCWrites == 0 {
		t.Error("full merges produced no relocation traffic")
	}
}

func TestFasterVersionsSurviveMerges(t *testing.T) {
	f, w := newTestFaster(t, FasterConfig{SecondChance: true})
	n := f.LogicalPages()
	version := make(map[int64]int)
	for lpn := int64(0); lpn < n; lpn++ {
		version[lpn] = 0
		if err := f.Write(w, lpn, fillPage(256, lpn, 0)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 1; i < int(n)*4; i++ {
		lpn := rng.Int63n(n)
		version[lpn] = i
		if err := f.Write(w, lpn, fillPage(256, lpn, i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
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

// Property: FASTer agrees with a model map under arbitrary mixed
// sequential/random write and trim sequences.
func TestFasterReadYourWritesProperty(t *testing.T) {
	type op struct {
		LPN  uint16
		Kind uint8
		Run  uint8 // sequential run length for Kind%3==1
	}
	f := func(ops []op, seed int64) bool {
		dev := testDevice(nand.Options{Seed: seed})
		ftl, err := NewFasterFTL(dev, FasterConfig{SecondChance: true})
		if err != nil {
			return false
		}
		w := &sim.ClockWaiter{}
		model := map[int64]int{}
		n := ftl.LogicalPages()
		ver := 0
		writeOne := func(lpn int64) bool {
			ver++
			model[lpn] = ver
			return ftl.Write(w, lpn, fillPage(256, lpn, ver)) == nil
		}
		for _, o := range ops {
			lpn := int64(o.LPN) % n
			switch o.Kind % 3 {
			case 0: // single random write
				if !writeOne(lpn) {
					return false
				}
			case 1: // sequential run
				run := int64(o.Run%16) + 1
				for j := int64(0); j < run && lpn+j < n; j++ {
					if !writeOne(lpn + j) {
						return false
					}
				}
			case 2: // trim
				if ftl.Trim(w, lpn) != nil {
					return false
				}
				delete(model, lpn)
			}
		}
		buf := make([]byte, 256)
		for lpn := int64(0); lpn < n; lpn++ {
			if err := ftl.Read(w, lpn, buf); err != nil {
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

func TestFasterSecondChanceReducesMergesOnSkew(t *testing.T) {
	// A hot/cold mix: second chances let hot pages die in the log before
	// forcing merges of their (mostly cold) logical blocks.
	run := func(second bool) Stats {
		dev := testDevice(nand.Options{})
		f, err := NewFasterFTL(dev, FasterConfig{SecondChance: second})
		if err != nil {
			t.Fatal(err)
		}
		w := &sim.ClockWaiter{}
		n := f.LogicalPages()
		for lpn := int64(0); lpn < n; lpn++ {
			if err := f.Write(w, lpn, fillPage(256, lpn, 0)); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(12))
		hot := n / 10
		for i := 0; i < int(n)*3; i++ {
			var lpn int64
			if rng.Float64() < 0.9 {
				lpn = rng.Int63n(hot) // 90% of updates hit 10% of pages
			} else {
				lpn = rng.Int63n(n)
			}
			if err := f.Write(w, lpn, fillPage(256, lpn, i)); err != nil {
				t.Fatal(err)
			}
		}
		return f.Stats()
	}
	with := run(true)
	without := run(false)
	if with.FullMerges >= without.FullMerges {
		t.Errorf("second chance did not reduce full merges: with=%d without=%d",
			with.FullMerges, without.FullMerges)
	}
}
