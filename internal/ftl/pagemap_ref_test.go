package ftl_test

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"noftl/internal/flash"
	"noftl/internal/ftl"
	"noftl/internal/nand"
	"noftl/internal/noftl"
	"noftl/internal/sim"
)

// The tests here use the page-mapping FTL — built in package noftl,
// which imports this one — as the reference DFTL and FASTer are
// measured against, so they live in the external test package, with
// their own copy of the in-package tests' device and page helpers.

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

func TestGCPolicies(t *testing.T) {
	for _, pol := range []ftl.GCPolicy{ftl.GreedyPolicy, ftl.CostBenefitPolicy, ftl.WearAwarePolicy} {
		dev := testDevice(nand.Options{})
		f, _ := noftl.NewPageFTL(dev, ftl.PageFTLConfig{OverProvision: 0.2, Policy: pol})
		w := &sim.ClockWaiter{}
		n := f.LogicalPages()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < int(n)*4; i++ {
			if err := f.Write(w, rng.Int63n(n), fillPage(256, 0, i)); err != nil {
				t.Fatalf("%v: %v", pol, err)
			}
		}
		if f.Stats().Erases == 0 {
			t.Errorf("%v: no erases", pol)
		}
	}
	if ftl.GreedyPolicy.String() != "greedy" || ftl.CostBenefitPolicy.String() != "cost-benefit" ||
		ftl.WearAwarePolicy.String() != "wear-aware" || ftl.GCPolicy(9).String() == "" {
		t.Error("GCPolicy.String broken")
	}
}

func TestDFTLSlowerThanPageMapInTime(t *testing.T) {
	// The headline DFTL result: identical workloads take longer through
	// DFTL than pure page mapping because of translation I/O.
	workload := func(f ftl.FTL, w *sim.ClockWaiter) sim.Time {
		n := f.LogicalPages()
		rng := rand.New(rand.NewSource(6))
		start := w.Now()
		for i := 0; i < 2000; i++ {
			lpn := rng.Int63n(n)
			if err := f.Write(w, lpn, fillPage(256, lpn, i)); err != nil {
				t.Fatal(err)
			}
			if i%4 == 0 {
				if err := f.Read(w, rng.Int63n(n), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		return w.Now() - start
	}
	devA := testDevice(nand.Options{})
	pm, err := noftl.NewPageFTL(devA, ftl.PageFTLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wA := &sim.ClockWaiter{}
	tPage := workload(pm, wA)

	devB := testDevice(nand.Options{})
	df, err := noftl.NewDFTL(devB, ftl.DFTLConfig{CMTEntries: 32})
	if err != nil {
		t.Fatal(err)
	}
	wB := &sim.ClockWaiter{}
	tDFTL := workload(df, wB)

	if tDFTL <= tPage {
		t.Errorf("DFTL (%v) should be slower than page mapping (%v)", tDFTL, tPage)
	}
	if ratio := float64(tDFTL) / float64(tPage); ratio < 1.2 {
		t.Errorf("DFTL slowdown %.2fx implausibly small under a thrashing CMT", ratio)
	}
}

func TestFasterHigherGCThanPageMap(t *testing.T) {
	// The Figure-3 shape at unit scale: the same random-update stream
	// costs FASTer about twice the relocations and erases of page-mapped
	// GC.
	workload := func(write func(lpn int64, i int) error, n int64) {
		for lpn := int64(0); lpn < n; lpn++ {
			if err := write(lpn, 0); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(21))
		for i := 0; i < int(n)*3; i++ {
			if err := write(rng.Int63n(n), i); err != nil {
				t.Fatal(err)
			}
		}
	}
	devA := testDevice(nand.Options{})
	fa, err := ftl.NewFasterFTL(devA, ftl.FasterConfig{SecondChance: true})
	if err != nil {
		t.Fatal(err)
	}
	wA := &sim.ClockWaiter{}
	devB := testDevice(nand.Options{})
	pm, err := noftl.NewPageFTL(devB, ftl.PageFTLConfig{OverProvision: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	wB := &sim.ClockWaiter{}
	n := fa.LogicalPages()
	if pm.LogicalPages() < n {
		n = pm.LogicalPages()
	}
	workload(func(lpn int64, i int) error { return fa.Write(wA, lpn, fillPage(256, lpn, i)) }, n)
	workload(func(lpn int64, i int) error { return pm.Write(wB, lpn, fillPage(256, lpn, i)) }, n)

	fs, ps := fa.Stats(), pm.Stats()
	fReloc := fs.GCCopybacks + fs.GCWrites
	pReloc := ps.GCCopybacks + ps.GCWrites
	if fReloc <= pReloc {
		t.Errorf("FASTer relocations (%d) should exceed page-map's (%d)", fReloc, pReloc)
	}
	if fs.Erases <= ps.Erases {
		t.Errorf("FASTer erases (%d) should exceed page-map's (%d)", fs.Erases, ps.Erases)
	}
}
