package nand

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"noftl/internal/sim"
)

func testGeo() Geometry {
	return Geometry{
		Channels:        2,
		ChipsPerChannel: 2,
		DiesPerChip:     2,
		PlanesPerDie:    2,
		BlocksPerPlane:  8,
		PagesPerBlock:   16,
		PageSize:        512,
		OOBSize:         16,
	}
}

func newTestArray(t *testing.T, opts Options) *Array {
	t.Helper()
	return NewArray(testGeo(), SLC, opts)
}

func TestGeometryDerived(t *testing.T) {
	g := testGeo()
	if got := g.Dies(); got != 8 {
		t.Errorf("Dies() = %d, want 8", got)
	}
	if got := g.BlocksPerDie(); got != 16 {
		t.Errorf("BlocksPerDie() = %d, want 16", got)
	}
	if got := g.PagesPerDie(); got != 256 {
		t.Errorf("PagesPerDie() = %d, want 256", got)
	}
	if got := g.TotalBlocks(); got != 128 {
		t.Errorf("TotalBlocks() = %d, want 128", got)
	}
	if got := g.TotalPages(); got != 2048 {
		t.Errorf("TotalPages() = %d, want 2048", got)
	}
	if got := g.TotalBytes(); got != 2048*512 {
		t.Errorf("TotalBytes() = %d, want %d", got, 2048*512)
	}
	if !strings.Contains(g.String(), "2ch") {
		t.Errorf("String() = %q, want channel count", g.String())
	}
}

func TestGeometryValidate(t *testing.T) {
	g := testGeo()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := g
	bad.PagesPerBlock = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero PagesPerBlock accepted")
	}
	bad = g
	bad.OOBSize = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative OOBSize accepted")
	}
}

// Property: PPN composition and decomposition are inverses for all valid
// coordinates.
func TestAddressRoundTripProperty(t *testing.T) {
	g := testGeo()
	f := func(die, plane, block, page uint8) bool {
		d := int(die) % g.Dies()
		pl := int(plane) % g.PlanesPerDie
		b := int(block) % g.BlocksPerPlane
		pg := int(page) % g.PagesPerBlock
		pbn := g.PBNOf(d, pl, b)
		ppn := g.FirstPage(pbn) + PPN(pg)
		return g.ValidPPN(ppn) &&
			g.BlockOf(ppn) == pbn &&
			g.PageIndex(ppn) == pg &&
			g.DieOf(ppn) == d &&
			g.PlaneOf(ppn) == pl &&
			g.DieOfBlock(pbn) == d &&
			g.PlaneOfBlock(pbn) == pl &&
			g.FirstPage(pbn)+PPN(pg) == ppn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestChannelOfDieRoundRobin(t *testing.T) {
	g := testGeo()
	counts := make([]int, g.Channels)
	for d := 0; d < g.Dies(); d++ {
		counts[g.ChannelOfDie(d)]++
	}
	for ch, n := range counts {
		if n != g.Dies()/g.Channels {
			t.Errorf("channel %d has %d dies, want %d", ch, n, g.Dies()/g.Channels)
		}
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	a := newTestArray(t, Options{StoreData: true})
	data := bytes.Repeat([]byte{0xAB}, 512)
	oob := OOB{LPN: 42, Seq: 7, Flags: 1}
	if err := a.ProgramPage(0, data, oob); err != nil {
		t.Fatalf("ProgramPage: %v", err)
	}
	buf := make([]byte, 512)
	got, err := a.ReadPage(0, buf)
	if err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if got != oob {
		t.Errorf("OOB = %+v, want %+v", got, oob)
	}
	if !bytes.Equal(buf, data) {
		t.Error("data mismatch after round trip")
	}
}

func TestReadErasedPage(t *testing.T) {
	a := newTestArray(t, Options{StoreData: true})
	if _, err := a.ReadPage(5, nil); !errors.Is(err, ErrPageErased) {
		t.Errorf("err = %v, want ErrPageErased", err)
	}
}

func TestProgramTwiceRejected(t *testing.T) {
	a := newTestArray(t, Options{})
	if err := a.ProgramPage(0, nil, OOB{}); err != nil {
		t.Fatal(err)
	}
	err := a.ProgramPage(0, nil, OOB{})
	if !errors.Is(err, ErrNotErased) {
		t.Errorf("err = %v, want ErrNotErased", err)
	}
}

func TestProgramOrderEnforced(t *testing.T) {
	a := newTestArray(t, Options{})
	// Page 3 before pages 0..2 must fail.
	if err := a.ProgramPage(3, nil, OOB{}); !errors.Is(err, ErrProgramOrder) {
		t.Errorf("err = %v, want ErrProgramOrder", err)
	}
	for p := PPN(0); p < 4; p++ {
		if err := a.ProgramPage(p, nil, OOB{}); err != nil {
			t.Fatalf("in-order program of %d: %v", p, err)
		}
	}
	if got := a.NextProgramPage(0); got != 4 {
		t.Errorf("NextProgramPage = %d, want 4", got)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	a := newTestArray(t, Options{StoreData: true})
	g := a.geo
	for p := 0; p < g.PagesPerBlock; p++ {
		if err := a.ProgramPage(PPN(p), nil, OOB{LPN: uint64(p)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.EraseBlock(0); err != nil {
		t.Fatalf("EraseBlock: %v", err)
	}
	if got := a.EraseCount(0); got != 1 {
		t.Errorf("EraseCount = %d, want 1", got)
	}
	if _, err := a.ReadPage(0, nil); !errors.Is(err, ErrPageErased) {
		t.Errorf("read after erase: %v, want ErrPageErased", err)
	}
	// Programming restarts from page 0.
	if err := a.ProgramPage(0, nil, OOB{}); err != nil {
		t.Errorf("program after erase: %v", err)
	}
}

func TestCopybackSamePlane(t *testing.T) {
	a := newTestArray(t, Options{StoreData: true})
	g := a.geo
	data := bytes.Repeat([]byte{0x5C}, g.PageSize)
	if err := a.ProgramPage(0, data, OOB{LPN: 9}); err != nil {
		t.Fatal(err)
	}
	// Block 1 is the next block in the same plane (die 0, plane 0).
	dst := g.FirstPage(1)
	if g.PlaneOfBlock(1) != g.PlaneOfBlock(0) || g.DieOfBlock(1) != g.DieOfBlock(0) {
		t.Fatal("test setup: block 1 not in same plane as block 0")
	}
	if err := a.Copyback(0, dst, OOB{LPN: 9}); err != nil {
		t.Fatalf("Copyback: %v", err)
	}
	buf := make([]byte, g.PageSize)
	oob, err := a.ReadPage(dst, buf)
	if err != nil {
		t.Fatal(err)
	}
	if oob.LPN != 9 || !bytes.Equal(buf, data) {
		t.Error("copyback did not preserve data/OOB")
	}
	c := a.Counters()
	if c.Copybacks != 1 {
		t.Errorf("Copybacks = %d, want 1", c.Copybacks)
	}
	if c.Programs != 1 {
		t.Errorf("Programs = %d, want 1 (copyback must not count as program)", c.Programs)
	}
}

func TestCopybackCrossPlaneRejected(t *testing.T) {
	a := newTestArray(t, Options{})
	g := a.geo
	if err := a.ProgramPage(0, nil, OOB{}); err != nil {
		t.Fatal(err)
	}
	// First page of plane 1 on die 0.
	dst := g.FirstPage(g.PBNOf(0, 1, 0))
	if err := a.Copyback(0, dst, OOB{}); !errors.Is(err, ErrCrossPlane) {
		t.Errorf("err = %v, want ErrCrossPlane", err)
	}
}

func TestCopybackUpdatesOOB(t *testing.T) {
	a := newTestArray(t, Options{})
	if err := a.ProgramPage(0, nil, OOB{LPN: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	g := a.geo
	if err := a.Copyback(0, g.FirstPage(1), OOB{LPN: 1, Seq: 99}); err != nil {
		t.Fatal(err)
	}
	got, err := a.ReadPage(g.FirstPage(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 99 {
		t.Errorf("Seq = %d, want 99", got.Seq)
	}
}

func TestWearOutRetiresBlock(t *testing.T) {
	a := NewArray(testGeo(), SLC, Options{Endurance: 3})
	for i := 0; i < 3; i++ {
		if err := a.EraseBlock(7); err != nil {
			t.Fatalf("erase %d: %v", i, err)
		}
	}
	err := a.EraseBlock(7)
	if !errors.Is(err, ErrWornOut) {
		t.Fatalf("err = %v, want ErrWornOut", err)
	}
	if !a.IsBad(7) {
		t.Error("worn-out block not marked bad")
	}
	// Bad blocks refuse programs and erases but stay readable for salvage.
	if perr := a.ProgramPage(a.geo.FirstPage(7), nil, OOB{}); !errors.Is(perr, ErrBadBlock) {
		t.Errorf("program to bad block: %v, want ErrBadBlock", perr)
	}
	if eerr := a.EraseBlock(7); !errors.Is(eerr, ErrBadBlock) {
		t.Errorf("erase of bad block: %v, want ErrBadBlock", eerr)
	}
}

func TestFactoryBadBlocks(t *testing.T) {
	a := NewArray(testGeo(), SLC, Options{InitialBadFraction: 0.2, Seed: 1})
	c := a.Counters()
	if c.FactoryBad == 0 {
		t.Error("expected some factory bad blocks at 20%")
	}
	bad := 0
	for b := 0; b < a.geo.TotalBlocks(); b++ {
		if a.IsBad(PBN(b)) {
			bad++
		}
	}
	if bad != c.FactoryBad {
		t.Errorf("IsBad count %d != FactoryBad %d", bad, c.FactoryBad)
	}
}

func TestProgramFailureInjection(t *testing.T) {
	a := NewArray(testGeo(), SLC, Options{ProgramFailProb: 1.0, Seed: 2})
	err := a.ProgramPage(0, nil, OOB{})
	if !errors.Is(err, ErrBadBlock) {
		t.Fatalf("err = %v, want ErrBadBlock", err)
	}
	if a.Counters().GrownBad != 1 {
		t.Errorf("GrownBad = %d, want 1", a.Counters().GrownBad)
	}
}

func TestBadAddressErrors(t *testing.T) {
	a := newTestArray(t, Options{})
	huge := PPN(a.geo.TotalPages())
	if _, err := a.ReadPage(huge, nil); !errors.Is(err, ErrBadAddress) {
		t.Errorf("ReadPage: %v, want ErrBadAddress", err)
	}
	if err := a.ProgramPage(huge, nil, OOB{}); !errors.Is(err, ErrBadAddress) {
		t.Errorf("ProgramPage: %v, want ErrBadAddress", err)
	}
	if err := a.EraseBlock(PBN(a.geo.TotalBlocks())); !errors.Is(err, ErrBadAddress) {
		t.Errorf("EraseBlock: %v, want ErrBadAddress", err)
	}
	if err := a.Copyback(huge, 0, OOB{}); !errors.Is(err, ErrBadAddress) {
		t.Errorf("Copyback: %v, want ErrBadAddress", err)
	}
}

func TestDataSizeChecked(t *testing.T) {
	a := newTestArray(t, Options{StoreData: true})
	if err := a.ProgramPage(0, []byte{1, 2, 3}, OOB{}); !errors.Is(err, ErrDataSize) {
		t.Errorf("short program: %v, want ErrDataSize", err)
	}
	if err := a.ProgramPage(0, nil, OOB{}); err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 3)
	if _, err := a.ReadPage(0, small); !errors.Is(err, ErrDataSize) {
		t.Errorf("short read buf: %v, want ErrDataSize", err)
	}
}

func TestDatalessModeTracksMetadataOnly(t *testing.T) {
	a := newTestArray(t, Options{StoreData: false})
	if err := a.ProgramPage(0, nil, OOB{LPN: 5}); err != nil {
		t.Fatal(err)
	}
	oob, err := a.ReadPage(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if oob.LPN != 5 {
		t.Errorf("LPN = %d, want 5", oob.LPN)
	}
}

func TestWearStats(t *testing.T) {
	a := newTestArray(t, Options{})
	for i := 0; i < 4; i++ {
		if err := a.EraseBlock(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.EraseBlock(1); err != nil {
		t.Fatal(err)
	}
	ws := a.Wear()
	if ws.Min != 0 || ws.Max != 4 {
		t.Errorf("wear min/max = %d/%d, want 0/4", ws.Min, ws.Max)
	}
	wantMean := 5.0 / 128.0
	if ws.Mean != wantMean {
		t.Errorf("wear mean = %v, want %v", ws.Mean, wantMean)
	}
}

// TestWearPerDieMatchesBlockScan checks Wear over each die and over the
// whole array against a scan of DieWear, on an array with retired
// blocks, uneven erase counts and one die whose blocks are all bad.
func TestWearPerDieMatchesBlockScan(t *testing.T) {
	a := newTestArray(t, Options{})
	geo := a.geo
	per := geo.BlocksPerDie()
	rng := rand.New(rand.NewSource(5))
	for b := range geo.TotalBlocks() {
		for range rng.Intn(6) {
			if err := a.EraseBlock(PBN(b)); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(5) == 0 {
			a.block(PBN(b)).bad = true
		}
	}
	const deadDie = 3
	for i := range per {
		a.block(PBN(deadDie*per + i)).bad = true
	}
	scan := func(dies ...int) WearStats {
		var ws WearStats
		var sum int64
		for _, die := range dies {
			for _, e := range a.DieWear(die) {
				if e < 0 {
					continue
				}
				if ws.TotalBlock == 0 || e < ws.Min {
					ws.Min = e
				}
				ws.Max = max(ws.Max, e)
				sum += int64(e)
				ws.TotalBlock++
			}
		}
		if ws.TotalBlock > 0 {
			ws.Mean = float64(sum) / float64(ws.TotalBlock)
		}
		return ws
	}
	all := make([]int, geo.Dies())
	for die := range all {
		all[die] = die
		if got, want := a.Wear(die), scan(die); got != want {
			t.Errorf("Wear(%d) = %+v, want %+v", die, got, want)
		}
	}
	if got := a.Wear(deadDie); got != (WearStats{}) {
		t.Errorf("Wear of an all-bad die = %+v, want zeros", got)
	}
	if got, want := a.Wear(), scan(all...); got != want || got.TotalBlock == 0 {
		t.Errorf("Wear() = %+v, want %+v", got, want)
	}
}

func TestCellTypeTimingAndEndurance(t *testing.T) {
	if SLC.Timing().ReadPage != 25*sim.Microsecond {
		t.Error("SLC tR should be 25µs")
	}
	if !(SLC.Timing().ProgramPage < MLC.Timing().ProgramPage &&
		MLC.Timing().ProgramPage < TLC.Timing().ProgramPage) {
		t.Error("program latency should increase SLC < MLC < TLC")
	}
	if !(SLC.Endurance() > MLC.Endurance() && MLC.Endurance() > TLC.Endurance()) {
		t.Error("endurance should decrease SLC > MLC > TLC")
	}
	if SLC.String() != "SLC" || MLC.String() != "MLC" || TLC.String() != "TLC" {
		t.Error("CellType.String broken")
	}
	if CellType(9).String() != "CellType(9)" {
		t.Error("unknown cell type String broken")
	}
}

// Property: any mix of valid in-order programs and erases keeps counters
// consistent: programs - erased pages never negative, wear total equals
// erase count.
func TestCountersConsistencyProperty(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		a := NewArray(testGeo(), SLC, Options{Seed: seed})
		g := a.geo
		var programs, erases int64
		for _, op := range ops {
			b := PBN(int(op) % g.TotalBlocks())
			if op%2 == 0 {
				next := a.NextProgramPage(b)
				if next < g.PagesPerBlock {
					if err := a.ProgramPage(g.FirstPage(b)+PPN(next), nil, OOB{}); err == nil {
						programs++
					}
				}
			} else {
				if err := a.EraseBlock(b); err == nil {
					erases++
				}
			}
		}
		c := a.Counters()
		return c.Programs == programs && c.Erases == erases
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
